(* The benchmark's own tests: the catalogue is well-formed, every
   workload runs correctly at a tiny size, and the oracle rejects a
   deliberately wrong expected value.  BENCHMARK.json itself is diffed
   against Catalog.benchmark_json by a dune rule. *)

open Servebench

let tiny =
  {
    (Workloads.default_knobs ~seconds:0.02) with
    Workloads.scale = 0.02;
    repeats = 2;
    crashes = 1;
  }

let test_names () =
  let names = List.map (fun m -> m.Catalog.name) Catalog.all in
  List.iter
    (fun m ->
      Alcotest.(check bool) ("name " ^ m.Catalog.name) true
        (Catalog.well_formed_name m.Catalog.name);
      Alcotest.(check bool) ("unit of " ^ m.Catalog.name) true
        (Catalog.well_formed_unit m.Catalog.unit_))
    Catalog.all;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun w ->
      Alcotest.(check bool) ("workload " ^ w.Catalog.w_name) true
        (Catalog.well_formed_name w.Catalog.w_name
        && String.length w.Catalog.why <= 200
        && not (String.contains w.Catalog.why '\n')))
    Catalog.workloads;
  Alcotest.(check (list string)) "every catalogue workload is runnable"
    (List.map (fun w -> w.Catalog.w_name) Catalog.workloads)
    (List.map fst Workloads.all);
  let bound m =
    match m.Catalog.kind with Catalog.End_to_end { bound; _ } -> bound | _ -> 0.
  in
  let setup = bound (Option.get (Catalog.find "setup_s")) in
  List.iter
    (fun m ->
      Alcotest.(check bool) ("bound of " ^ m.Catalog.name) true
        (bound m > 0. && bound m <= 0.25 && bound m <= setup))
    Catalog.end_to_end;
  Alcotest.(check bool) "malformed names are refused" false
    (Catalog.well_formed_name ".x" || Catalog.well_formed_name "a b"
    || Catalog.well_formed_name (String.make 65 'a'))

let check_run r =
  let name = r.Report.workload in
  if not (Oracle.ok r.Report.log) then
    Alcotest.failf "%s: %s" name (String.concat "; " r.Report.log.Oracle.first);
  Alcotest.(check int) (name ^ ": failed requests") 0 (Report.failed r);
  Alcotest.(check int) (name ^ ": lost acked writes") 0 r.Report.lost_acked;
  Alcotest.(check (list string)) (name ^ ": reports every end-to-end metric")
    (List.map (fun m -> m.Catalog.name) Catalog.end_to_end)
    (List.map fst (Report.end_to_end r));
  List.iter
    (fun (metric, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s = %g is positive and finite" name metric v)
        true
        (Float.is_finite v && v > 0.))
    (Report.end_to_end r)

let test_tiny (name, run) =
  Alcotest.test_case ("tiny " ^ name) `Quick (fun () -> check_run (run tiny ~seed:5))

let test_tamper (name, run) =
  Alcotest.test_case ("oracle rejects a wrong expected value: " ^ name) `Quick
    (fun () ->
      let r = run { tiny with Workloads.tamper = true; repeats = 1 } ~seed:5 in
      Alcotest.(check bool) "violation reported" false (Oracle.ok r.Report.log))

(* The traced pass reaches each workload's own layers and records the
   benchmark's spans around every call. *)
let test_traced () =
  let traced = { tiny with Workloads.traced = true; repeats = 1 } in
  let layer r n = Option.value (List.assoc_opt n r.Report.layers) ~default:0. in
  let expect r names =
    check_run r;
    Alcotest.(check bool) (r.Report.workload ^ ": spans recorded") true
      (Spans.count r.Report.spans > 0);
    List.iter
      (fun n ->
        Alcotest.(check bool)
          (r.Report.workload ^ ": " ^ n ^ " > 0")
          true
          (layer r n > 0.))
      names
  in
  expect
    (Workloads.ycsb_a_large traced ~seed:6)
    [
      "shard.busy_s"; "shard.ops_per_batch"; "pmem.fences_per_op.batch";
      "fastfair.splits_per_kop";
    ];
  expect
    (Workloads.txn_snapshot { traced with Workloads.scale = 0.05; seconds = 0.1 } ~seed:6)
    [
      "tx.commits"; "tx.commit_sim_ns"; "snapshot.pin_sim_ns";
      "snapshot.audit_keys_per_s"; "snapshot.self_s";
    ];
  expect (Workloads.replicated traced ~seed:6)
    [ "net.rpc_per_op"; "cluster.repl_records_per_write"; "cluster.failovers";
      "cluster.blackout_sim_us"; "cluster.self_s" ]

let test_oracle () =
  let m = Oracle.of_pairs [| (1, 3); (5, 11); (9, 19) |] in
  Alcotest.(check int) "range count" 2 (Oracle.range_count m 2 9);
  let scan pairs f = List.iter (fun (k, v) -> f k v) pairs in
  Alcotest.(check (pair int int)) "exact readback" (0, 0)
    (Oracle.readback m (scan [ (1, 3); (5, 11); (9, 19) ]));
  Alcotest.(check (pair int int)) "lost, stale and extra bindings" (2, 1)
    (Oracle.readback m (scan [ (1, 3); (5, 13); (7, 15) ]))

let () =
  Alcotest.run "servebench"
    [
      ( "catalogue",
        [ Alcotest.test_case "metric and workload names" `Quick test_names ] );
      ("oracle", [ Alcotest.test_case "model readback" `Quick test_oracle ]);
      ("tiny", List.map test_tiny Workloads.all);
      ("tamper", List.map test_tamper Workloads.all);
      ("traced", [ Alcotest.test_case "per-layer reach" `Quick test_traced ]);
    ]
