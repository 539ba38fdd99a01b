(* The @fuzz entry point: random workloads x fault plans per scheme, then
   the sabotage self-checks proving the invariant checker has teeth.
   FUZZ_COUNT tunes cases per scheme (default 200, ~30s total); anything
   but a non-negative integer is rejected. Failing cases shrink and print
   a `dangers fuzz --replay ...` command line. *)

module Fuzz = Dangers_fault.Fuzz

let () =
  let count =
    match Sys.getenv_opt "FUZZ_COUNT" with
    | None -> 200
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 0 -> n
        | Some _ | None ->
            Printf.eprintf
              "FUZZ_COUNT must be a non-negative integer, got %S\n" s;
            exit 2)
  in
  let tests = Fuzz.tests ~count () @ Fuzz.sabotage_tests () in
  exit (QCheck_base_runner.run_tests ~colors:false ~verbose:true tests)
