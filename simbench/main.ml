(* Simulator benchmark entry point.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]

   Prints a readable table, then as its last line one JSON object with
   the end-to-end metrics (--trace 0) or the per-layer metrics
   (--trace 1).  A failed correctness check is reported on stderr and
   the exit code is 1.  With --trace 1 the walk's spans are written to
   DIR/spans-NAME.tsv. *)

open Simbench

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref ".simbench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workloads.names);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed window");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer metrics");
      ("--out", Arg.Set_string out, " directory for the span file");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "simbench --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline ("simbench: --workload must be one of " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "simbench: --trace must be 0 or 1";
    exit 2
  end;
  let traced = !trace = 1 in
  let report = Bench.run ~trace:traced ~seed:!seed ~seconds:!seconds !workload in
  Printf.printf "%s seed %d: %d flows, timed runs (s):%s%s\n" !workload !seed
    report.attempted
    (String.concat "" (List.map (Printf.sprintf " %.4f") report.walls))
    (match report.two_domain_wall with
    | Some t -> Printf.sprintf "; at 2 domains %.4f" t
    | None -> "");
  List.iter
    (fun (x : Bench.metric) -> Printf.printf "%-40s %16.6g %s\n" x.name x.value x.unit_)
    ((if traced then report.per_layer else report.end_to_end) @ report.simulated);
  if traced then begin
    if not (Sys.file_exists !out) then Sys.mkdir !out 0o755;
    Spans.write report.spans (Filename.concat !out ("spans-" ^ !workload ^ ".tsv"))
  end;
  List.iter (fun f -> prerr_endline ("simbench: CHECK FAILED: " ^ f)) report.failures;
  print_endline (Bench.to_json report ~trace:traced);
  if not report.correct then exit 1
