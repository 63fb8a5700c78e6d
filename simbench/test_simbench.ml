(* Tests for the benchmark itself, at a small size: every check passes
   on every workload, the walk crosses every offered packet once, and
   the allocation metric repeats exactly for a fixed seed. *)

open Simbench

let run ?trace name = Bench.run ?trace ~size:Workloads.Small ~min_reps:2 ~seed:7 ~seconds:0. name

let () =
  let failures = ref 0 in
  let expect ok msg =
    if not ok then begin
      incr failures;
      prerr_endline ("FAIL: " ^ msg)
    end
  in
  List.iter
    (fun name ->
      let a = run ~trace:true name in
      List.iter (fun f -> prerr_endline (name ^ ": " ^ f)) a.Bench.failures;
      expect a.correct (name ^ ": every correctness check passes");
      expect (a.failed = 0) (name ^ ": no flow fails");
      let w = Workloads.make ~seed:7 ~size:Workloads.Small name in
      expect
        (Bench.find a "switch.process.calls" = float_of_int (Workloads.offered_packets w))
        (name ^ ": the walk's switch.process calls equal the offered packets");
      let b = run name in
      expect
        (Bench.find a "words_per_flow" = Bench.find b "words_per_flow")
        (name ^ ": words_per_flow repeats exactly across same-seed runs"))
    Workloads.names;
  if !failures > 0 then exit 1;
  print_endline "simbench: all tests passed"
