(* The live service must survive clients that hang up before reading
   their reply. Each early-closing client below makes the server's reply
   write hit a closed socket; without SIGPIPE ignored that signal kills
   the whole process, and this test runner with it. *)

module Params = Dangers_analytic.Params
module Server = Dangers_live.Server
module Protocol = Dangers_live.Protocol
module Op = Dangers_txn.Op
module Oid = Dangers_storage.Oid

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let socket_path =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "dangers-test-serve-%d.sock" (Unix.getpid ()))

let config =
  {
    Server.socket_path;
    base_nodes = 1;
    params =
      {
        Params.default with
        Params.nodes = 4;
        db_size = 50;
        action_time = 0.0001;
      };
    seed = 3;
    metrics_out = None;
    series_out = None;
    sample_interval = 1.0;
    quiet = true;
    print_summary = false;
  }

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  fd

let wait_for_socket () =
  let rec wait budget =
    if Sys.file_exists socket_path then ()
    else if budget = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Unix.sleepf 0.01;
      wait (budget - 1)
    end
  in
  wait 1_000

let rpc fd request =
  Protocol.send fd Protocol.request request;
  match Protocol.recv fd Protocol.response with
  | Some response -> response
  | None -> Alcotest.fail "server closed the connection"

let early_close () =
  let fd = connect () in
  let frame = Protocol.to_frame Protocol.request Protocol.Metrics_prom in
  ignore (Unix.write_substring fd frame 0 (String.length frame) : int);
  Unix.close fd

let test_early_close_survives () =
  let server = Domain.spawn (fun () -> Server.serve config) in
  match
    wait_for_socket ();
    for _ = 1 to 20 do
      early_close ()
    done;
    let fd = connect () in
    (match rpc fd Protocol.Hello with
    | Protocol.Assigned _ -> ()
    | _ -> Alcotest.fail "expected Assigned");
    (match rpc fd (Protocol.Set_connected false) with
    | Protocol.Done -> ()
    | _ -> Alcotest.fail "expected Done");
    (match rpc fd (Protocol.Submit [ Op.Increment (Oid.of_int 1, 1.) ]) with
    | Protocol.Tentative -> ()
    | _ -> Alcotest.fail "expected Tentative");
    (match rpc fd Protocol.Sync with
    | Protocol.Synced -> ()
    | _ -> Alcotest.fail "expected Synced");
    let stats =
      match rpc fd Protocol.Stats with
      | Protocol.Stats_reply stats -> stats
      | _ -> Alcotest.fail "expected Stats_reply"
    in
    (match rpc fd Protocol.Shutdown with
    | Protocol.Done -> ()
    | _ -> Alcotest.fail "expected Done");
    Unix.close fd;
    stats
  with
  | replied ->
      let final = Domain.join server in
      checki "the tentative transaction was decided" 1
        (replied.tentative_accepted + replied.tentative_rejected);
      checkb "shutdown returned the stats" true
        (final.Protocol.commits >= replied.commits
        && final.tentative_accepted = replied.tentative_accepted)
  | exception exn ->
      (* Don't leave the server domain parked on a live socket. *)
      (try
         let fd = connect () in
         Protocol.send fd Protocol.request Protocol.Shutdown;
         Unix.close fd
       with Unix.Unix_error _ -> ());
      ignore (Domain.join server);
      raise exn

let suite =
  [
    Alcotest.test_case "early-closing clients do not kill the server" `Quick
      test_early_close_survives;
  ]
