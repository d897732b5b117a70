(* servebench: one workload, one process, one client.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --list-metrics | --emit-benchmark-json

   The last line of standard output is the JSON result.  The exit code
   is 1 when a correctness check failed, 2 on bad arguments. *)

open Servebench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --list-metrics | --emit-benchmark-json";
  exit 2

let list_metrics () =
  List.iter
    (fun m ->
      match m.Catalog.kind with
      | Catalog.End_to_end { bound; what; _ } ->
          Printf.printf "%-34s %-9s end_to_end  bound %.2f  %s\n" m.Catalog.name
            m.Catalog.unit_ bound what
      | Catalog.Per_layer { layer; moves; what; _ } ->
          Printf.printf "%-34s %-9s %-10s  moves %s  (%s)\n" m.Catalog.name
            m.Catalog.unit_ layer moves what)
    Catalog.all

let spans_file workload =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s.tsv" workload)

let correct r = Oracle.ok r.Report.log && r.Report.lost_acked = 0

let throughput r = List.assoc "throughput_ops_s" (Report.end_to_end r)

let overhead_pairs = 3

let run ~workload ~seed ~seconds ~trace =
  let f =
    match List.assoc_opt workload Workloads.all with
    | Some f -> f
    | None ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" workload
          (String.concat ", " (List.map fst Workloads.all));
        exit 2
  in
  let k = Workloads.default_knobs ~seconds in
  Printf.printf "servebench %s seed=%d seconds=%g trace=%d\n%!" workload seed
    seconds (if trace then 1 else 0);
  if not trace then begin
    let r = f k ~seed in
    let metrics = Report.end_to_end r in
    Report.print_block ~title:"end-to-end (untraced)" r metrics;
    print_endline
      (Report.json_line ~correct:(correct r) ~attempted:(Report.attempted r)
         ~failed:(Report.failed r) metrics);
    exit (if correct r then 0 else 1)
  end
  else begin
    (* The tracing overhead is the median over [overhead_pairs] pairs of
       an untraced pass followed by a traced one, so a drift in host speed
       between passes mostly cancels.  The last traced pass also runs a
       crash cycle and supplies the layer metrics. *)
    let pass ~traced ~last =
      Gc.full_major ();
      f { k with Workloads.repeats = 1; crashes = (if last then 1 else 0); traced } ~seed
    in
    let pairs =
      List.init overhead_pairs (fun i ->
          let plain = pass ~traced:false ~last:false in
          (plain, pass ~traced:true ~last:(i = overhead_pairs - 1)))
    in
    let _, r = Workloads.last pairs in
    let overhead =
      Report.median
        (List.map (fun (p, t) -> 100. *. (1. -. (throughput t /. throughput p))) pairs)
    in
    let metrics =
      List.map
        (fun m ->
          let name = m.Catalog.name in
          if name = "trace.overhead_pct" then (name, overhead)
          else (name, Option.value (List.assoc_opt name r.Report.layers) ~default:0.))
        Catalog.per_layer
    in
    Report.print_block ~title:"per-layer (traced)" r metrics;
    List.iter
      (fun (name, v) ->
        if Catalog.find name = None && v <> 0. then
          Printf.printf "  %-34s %16.4f (not in the catalogue)\n" name v)
      r.Report.layers;
    List.iter
      (fun (p, t) ->
        Printf.printf "  untraced pass %.1f ops/s, traced pass %.1f ops/s\n"
          (throughput p) (throughput t))
      pairs;
    Report.print_layer_table r;
    let path = spans_file workload in
    Spans.write r.Report.spans path;
    Printf.printf "  spans written to %s\n" path;
    let ok = List.for_all (fun (p, t) -> correct p && correct t) pairs in
    print_endline
      (Report.json_line ~correct:ok ~attempted:(Report.attempted r)
         ~failed:(Report.failed r) metrics);
    exit (if ok then 0 else 1)
  end

let () =
  let workload = ref "" and seed = ref 1 in
  let seconds = ref (float_of_int Catalog.run_seconds) in
  let trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--list-metrics" :: _ ->
        list_metrics ();
        exit 0
    | "--emit-benchmark-json" :: _ ->
        print_string (Catalog.benchmark_json ());
        exit 0
    | flag :: v :: rest -> (
        (try
           match flag with
           | "--workload" -> workload := v
           | "--seed" -> seed := int_of_string v
           | "--seconds" -> seconds := float_of_string v
           | "--trace" -> trace := int_of_string v
           | _ -> usage ()
         with Failure _ -> usage ());
        parse rest)
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !workload = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
