(* A run's measurements, the metrics derived from them, and the two
   outputs: a human-readable block and the one-line JSON result. *)

type phase = {
  requests : int;  (** attempted requests (client turns) *)
  failed : int;  (** failed or refused requests *)
  ops : int;  (** key ops, or committed transactions on txn-snapshot *)
  lat_ns : int array;  (** wall ns per request *)
  sim_ns : int array;  (** simulated ns per request *)
  wall_ns : int;  (** summed turn wall time *)
  sim_total_ns : int;
}

(* One run builds the system and measures the same phase on it
   [List.length phases] times; each wall-clock figure is the median over
   the phases. *)
type run = {
  workload : string;
  setup_s : float list;
  phases : phase list;
  recovery_s : float list;
  recovery_sim_us : float list;
  bytes_per_kv : float;
  heap_peak_mb : float;
  log : Oracle.log;
  lost_acked : int;
  layers : (string * float) list;
  spans : Spans.t;
  notes : string list;
}

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of raw samples. *)
let percentile samples p =
  let n = Array.length samples in
  if n = 0 then 0
  else begin
    let a = Array.copy samples in
    Array.sort compare a;
    let r = int_of_float (Float.ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (r - 1)))
  end

(* Wall-clock latency percentiles are taken per window of consecutive
   requests, [windows] windows to a phase, and reported as the median over
   the windows of every phase.  On a shared host, bursts of interference
   slow a few percent of the requests for a fraction of a second; a p99
   taken over a whole phase jumps whenever such a burst lands in it, while
   the median over windows only moves when most windows move. *)
let windows = 8

let windowed_us phases q =
  List.concat_map
    (fun p ->
      let n = Array.length p.lat_ns in
      let w = max 1 (min windows n) in
      List.init w (fun i ->
          let lo = i * n / w and hi = (i + 1) * n / w in
          float_of_int (percentile (Array.sub p.lat_ns lo (hi - lo)) q) /. 1e3))
    phases
  |> median

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let attempted r = List.fold_left (fun a p -> a + p.requests) 0 r.phases
let failed r = List.fold_left (fun a p -> a + p.failed) 0 r.phases

let error_rate r =
  float_of_int (failed r) /. float_of_int (max 1 (attempted r))

let end_to_end r =
  let med f = median (List.map f r.phases) in
  let ops p = float_of_int (max 1 p.ops) in
  [
    ("throughput_ops_s", med (fun p -> ops p /. (float_of_int (max 1 p.wall_ns) *. 1e-9)));
    ("latency_p50_us", windowed_us r.phases 50.);
    ("latency_p99_us", windowed_us r.phases 99.);
    ("sim_ns_per_op", med (fun p -> float_of_int p.sim_total_ns /. ops p));
    ("sim_p50_ns", med (fun p -> float_of_int (percentile p.sim_ns 50.)));
    ("sim_p99_ns", med (fun p -> float_of_int (percentile p.sim_ns 99.)));
    ("setup_s", median r.setup_s);
    ("recovery_s", median r.recovery_s);
    ("recovery_sim_us", median r.recovery_sim_us);
    ("bytes_per_kv", r.bytes_per_kv);
    ("heap_peak_mb", r.heap_peak_mb);
  ]

let unit_of name =
  match Catalog.find name with Some m -> m.Catalog.unit_ | None -> ""

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_block ~title r metrics =
  Printf.printf "== %s: %s\n" r.workload title;
  let p = List.hd r.phases in
  Printf.printf
    "  %d phase(s) of %d requests (%d ops, %d latency samples each); failed \
     %d, error_rate %s, lost_acked_writes %d\n"
    (List.length r.phases) p.requests p.ops (Array.length p.lat_ns) (failed r)
    (number (error_rate r)) r.lost_acked;
  Printf.printf "  per-phase ops/s:%s\n"
    (String.concat ""
       (List.map
          (fun p ->
            Printf.sprintf " %.0f"
              (float_of_int p.ops /. (float_of_int (max 1 p.wall_ns) *. 1e-9)))
          r.phases));
  Printf.printf "  per-phase p99 us over the whole phase:%s\n"
    (String.concat ""
       (List.map
          (fun p -> Printf.sprintf " %.3f" (float_of_int (percentile p.lat_ns 99.) /. 1e3))
          r.phases));
  List.iter (fun n -> Printf.printf "  note: %s\n" n) r.notes;
  List.iter
    (fun (name, v) -> Printf.printf "  %-34s %16.4f %s\n" name v (unit_of name))
    metrics;
  if r.log.Oracle.count > 0 then begin
    Printf.printf "  CORRECTNESS: %d violation(s)\n" r.log.Oracle.count;
    List.iter (fun s -> Printf.printf "    %s\n" s) r.log.Oracle.first
  end

let print_layer_table r =
  if Spans.count r.spans > 0 then begin
    Printf.printf "  per-layer self time (%d spans):\n" (Spans.count r.spans);
    Printf.printf "    %-10s %12s %12s %10s\n" "layer" "self_s" "inclusive_s"
      "spans";
    List.iter
      (fun (l, self, inc, c) ->
        Printf.printf "    %-10s %12.6f %12.6f %10d\n" l self inc c)
      (Spans.layer_table r.spans)
  end

let json_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
          (Catalog.json_string name) (number v)
          (Catalog.json_string (unit_of name)))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
