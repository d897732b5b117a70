(* The benchmark's catalogue: its workloads and every metric it reports,
   with unit, layer and the end-to-end metric each per-layer metric
   should move.  BENCHMARK.json is rendered from this module
   ([benchmark_json]) and the test suite diffs the checked-in file
   against it, so the two cannot drift apart. *)

type workload = {
  w_name : string;
  why : string;  (** one line, parameters first, then the reason *)
}

let workloads =
  [
    {
      w_name = "ycsb-a-large";
      why =
        "50% fresh-key insert/50% uniform search, Shard.submit of 32 ops; 4 \
         hash shards, group flush; 40K keys, 1024-line cache, pm 300/300; \
         Keep_none. Shifts, splits, flushes, misses";
    };
    {
      w_name = "scan-small";
      why =
        "Zipf search 45%/scan 1-100 50%/insert 5%, 16-op submits; 4 range \
         shards; 8K keys, under half the default 16384-line cache; pm \
         300/300; Keep_none. Merge cursor, cache hits, few flushes";
    };
    {
      w_name = "txn-snapshot";
      why =
        "2-4 key read-modify-write Shard.txn on snap-fastfair, 4 hash \
         shards, 20K keys, 1024 lines, pm 300/300; pin+audit+gc every 64 \
         txns; Keep_none. Only tx, 2PC and snapshot user";
    };
    {
      w_name = "replicated";
      why =
        "50/50 Cluster.put/get on Cluster.default (3 nodes, 4 shards, \
         Config.default 100/100, seeded fabric faults), 8K keys, tick every \
         16 requests; kill primary, failover, restart. Only cluster/net user";
    };
  ]

type better = Lower | Higher

type kind =
  | End_to_end of { better : better; bound : float; what : string }
  | Per_layer of {
      layer : string;
      better : better;
      moves : string;
      what : string;
    }

type metric = { name : string; unit_ : string; kind : kind }

let e2e name unit_ better bound what =
  { name; unit_; kind = End_to_end { better; bound; what } }

let pl ?(better = Lower) layer name unit_ moves what =
  { name; unit_; kind = Per_layer { layer; better; moves; what } }

(* End-to-end metrics, measured with tracing off.  Failed or refused
   requests are not a metric here: they are 0 on every fault-free
   workload, so they travel as the result's [attempted]/[failed] pair
   (error_rate) and as the printed lost_acked_writes count. *)
let end_to_end =
  [
    e2e "throughput_ops_s" "ops/s" Higher 0.25
      "ops / summed wall time of requests and cadence maintenance, median over the phases";
    e2e "latency_p50_us" "us" Lower 0.25
      "median wall time per request, median over 8 windows per phase";
    e2e "latency_p99_us" "us" Lower 0.25
      "p99 wall time per request, median over 8 windows per phase";
    e2e "sim_ns_per_op" "ns" Lower 0.1
      "simulated PM ns per op (replicated: fabric clock ns per op)";
    e2e "sim_p50_ns" "ns" Lower 0.1 "median simulated ns per request";
    e2e "sim_p99_ns" "ns" Lower 0.1 "p99 simulated ns per request";
    e2e "setup_s" "s" Lower 0.25 "median wall time to build and load";
    e2e "recovery_s" "s" Lower 0.25
      "median wall time from crash until service resumes";
    e2e "recovery_sim_us" "us" Lower 0.1
      "median simulated us from crash until service resumes";
    e2e "bytes_per_kv" "B/kv" Lower 0.1
      "PM words used x 8 / (live keys x 16), all replicas and versions";
    e2e "heap_peak_mb" "MB" Lower 0.25
      "Gc.top_heap_words x 8 in MB, read right after the last measured phase";
  ]

(* Sites of the fence audit reported one by one; fences attributed to
   any other site are summed under [pmem.fences_per_op.other]. *)
let fence_sites =
  [
    "batch"; "insert"; "split"; "tx_commit"; "tx_log"; "snap_publish"; "snap_gc";
    "untagged"; "other";
  ]

let yc = "ycsb-a-large"
let sc = "scan-small"
let tx = "txn-snapshot"
let rp = "replicated"
let all_w = "all workloads"

let per_layer =
  [
    pl "shard" "shard.busy_s" "s" ("throughput_ops_s on " ^ all_w)
      "wall time inside submit, txn and range calls";
    pl ~better:Higher "shard" "shard.ops_per_batch" "ops"
      ("sim_ns_per_op, throughput_ops_s on " ^ yc)
      "ops / Shard.batches";
    pl "shard" "shard.route_imbalance" "ratio" ("latency_p99_us on " ^ all_w)
      "max / mean of Shard.routed";
    pl "shard" "shard.retries" "count" "error_rate" "degraded_stats retries";
    pl "shard" "shard.rejected" "count" "error_rate" "degraded_stats rejected";
    pl "fastfair" "fastfair.search_sim_ns_per_op" "ns" ("sim_ns_per_op on " ^ sc)
      "Stats.search_ns / ops";
    pl "fastfair" "fastfair.update_sim_ns_per_op" "ns" ("sim_ns_per_op on " ^ yc)
      "Stats.update_ns / ops";
    pl "fastfair" "fastfair.splits_per_kop" "count/kop" ("sim_p99_ns on " ^ yc)
      "fastfair.splits.* tracer counters per 1000 ops";
    pl "fastfair" "fastfair.sibling_chases" "count" ("sim_p99_ns on " ^ yc)
      "fastfair.sibling_chase tracer counter";
    pl "pmem" "pmem.loads_per_op" "count" "sim_ns_per_op" "word loads / op";
    pl "pmem" "pmem.stores_per_op" "count" "sim_ns_per_op" "word stores / op";
    pl "pmem" "pmem.flushes_per_op" "count"
      ("sim_ns_per_op on " ^ yc ^ ", " ^ tx)
      "line flushes / op";
    pl "pmem" "pmem.fences_per_op" "count"
      ("sim_ns_per_op on " ^ yc ^ ", " ^ tx)
      "fences / op";
    pl "pmem" "pmem.line_misses_per_op" "count" "sim_ns_per_op"
      "PM line misses / op";
    pl ~better:Higher "pmem" "pmem.cache_hit_ratio" "ratio"
      ("sim_ns_per_op on " ^ sc ^ " against " ^ yc)
      "line hits / line accesses";
    pl "pmem" "pmem.seq_miss_share" "ratio" "sim_ns_per_op"
      "misses served at the MLP discount / misses";
    pl "pmem" "pmem.flush_sim_ns_per_op" "ns"
      ("sim_ns_per_op on " ^ yc ^ ", " ^ tx)
      "Stats.flush_ns / op";
    pl "pmem" "pmem.fence_sim_ns_per_op" "ns"
      ("sim_ns_per_op on " ^ yc ^ ", " ^ tx)
      "Stats.fence_ns / op";
  ]
  @ List.map
      (fun site ->
        pl "pmem" ("pmem.fences_per_op." ^ site) "count" "sim_ns_per_op"
          ("fences attributed to site " ^ site ^ " by Trace.site_table / op"))
      fence_sites
  @ [
      pl ~better:Higher "tx" "tx.commits" "count" ("throughput_ops_s on " ^ tx)
        "tx_stats commits (one per participant shard)";
      pl "tx" "tx.aborts" "count" ("throughput_ops_s on " ^ tx) "tx_stats aborts";
      pl "tx" "tx.replays" "count" ("recovery_sim_us on " ^ tx)
        "tx_stats replays after the last recovery";
      pl "tx" "tx.fences_per_txn" "count" ("sim_p99_ns on " ^ tx)
        "fences / committed txn";
      pl "tx" "tx.commit_sim_ns" "ns" ("sim_p99_ns on " ^ tx)
        "simulated ns from the end of the txn body to Shard.txn's return";
      pl "tx" "tx.cross_shard_share" "ratio" ("throughput_ops_s on " ^ tx)
        "txns touching more than one shard / txns";
      pl "snapshot" "snapshot.pin_sim_ns" "ns" ("sim_ns_per_op on " ^ tx)
        "simulated ns per Shard.snapshot_begin";
      pl ~better:Higher "snapshot" "snapshot.audit_keys_per_s" "keys/s"
        ("throughput_ops_s on " ^ tx)
        "keys read by Shard.range_at / wall time inside it";
      pl ~better:Higher "snapshot" "snapshot.gc_freed_lines" "count"
        ("bytes_per_kv and sim_p99_ns on " ^ tx)
        "lines freed by Shard.gc_before";
      pl "scrub" "scrub.duration_sim_ns" "ns" "recovery_sim_us on shard workloads"
        "Shard.scrub_reports duration_ns, summed over shards";
      pl "scrub" "scrub.leaked_words" "count" "recovery_sim_us on shard workloads"
        "Shard.scrub_reports leaked_words";
      pl "scrub" "scrub.repaired_lines" "count" "recovery_sim_us on shard workloads"
        "Shard.scrub_reports repaired_lines";
      pl "cluster" "cluster.repl_records_per_write" "count"
        ("sim_ns_per_op on " ^ rp) "replication records acked / put";
      pl "cluster" "cluster.resent_ratio" "ratio" ("sim_ns_per_op on " ^ rp)
        "records re-shipped / records acked (wasted work)";
      pl "cluster" "cluster.fences_per_op" "count" ("sim_ns_per_op on " ^ rp)
        "Cluster.fences / op, all node arenas";
      pl "cluster" "cluster.failovers" "count" ("recovery_sim_us on " ^ rp)
        "backup promotions";
      pl "cluster" "cluster.blackout_sim_us" "us" ("recovery_sim_us on " ^ rp)
        "last ack gap bridged by a failover";
      pl "cluster" "cluster.read_only" "count" ("error_rate on " ^ rp)
        "writes refused read-only";
      pl "cluster" "cluster.unavailable" "count" ("error_rate on " ^ rp)
        "ops with no reachable primary";
      pl "net" "net.rpc_per_op" "count" ("sim_p99_ns on " ^ rp) "fabric sends / op";
      pl "net" "net.drop_ratio" "ratio" ("sim_p99_ns on " ^ rp) "drops / sends";
      pl "net" "net.dup_ratio" "ratio" ("sim_p99_ns on " ^ rp) "duplicates / sends";
      pl "gc" "gc.minor_words_per_op" "words" ("throughput_ops_s on " ^ all_w)
        "OCaml minor-heap words allocated / op";
      pl "gc" "gc.major_collections" "count" ("throughput_ops_s on " ^ all_w)
        "OCaml major collections in the measured phase";
      pl "client" "client.self_s" "s" ("throughput_ops_s on " ^ all_w)
        "benchmark span self time (harness work inside turns)";
      pl "shard" "shard.self_s" "s" ("throughput_ops_s on " ^ all_w)
        "shard span self time (includes fastfair and pmem)";
      pl "snapshot" "snapshot.self_s" "s" ("throughput_ops_s on " ^ tx)
        "snapshot span self time";
      pl "cluster" "cluster.self_s" "s" ("throughput_ops_s on " ^ rp)
        "cluster span self time (includes net, shard, fastfair)";
      pl "client" "trace.overhead_pct" "%" "none (cost of the traced run)"
        "throughput lost by the traced pass against the untraced pass";
    ]

let all = end_to_end @ per_layer
let find name = List.find_opt (fun m -> m.name = name) all
let run_seconds = 12

(* The benchmark contract's name and unit alphabets. *)
let is_alnum c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let well_formed_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let well_formed_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let better_string = function Lower -> "lower" | Higher -> "higher"

let benchmark_json () =
  let b = Buffer.create 8192 in
  let p fmt = Printf.bprintf b fmt in
  let items render xs =
    List.iteri
      (fun i x ->
        p "    %s%s\n" (render x) (if i + 1 < List.length xs then "," else ""))
      xs
  in
  p "{\n";
  p "  \"command\": [\"python3\", \"servebench/run.py\"],\n";
  p "  \"paths\": [\"servebench\"],\n";
  p "  \"run_seconds\": %d,\n" run_seconds;
  p "  \"workloads\": [\n";
  items
    (fun w ->
      Printf.sprintf "{\"name\": %s, \"why\": %s}" (json_string w.w_name)
        (json_string w.why))
    workloads;
  p "  ],\n";
  p "  \"end_to_end\": [\n";
  items
    (fun m ->
      match m.kind with
      | End_to_end { better; bound; _ } ->
          Printf.sprintf
            "{\"name\": %s, \"unit\": %s, \"better\": %s, \"bound\": %g}"
            (json_string m.name) (json_string m.unit_)
            (json_string (better_string better))
            bound
      | Per_layer _ -> assert false)
    end_to_end;
  p "  ],\n";
  p "  \"per_layer\": [\n";
  items
    (fun m ->
      match m.kind with
      | Per_layer { better; _ } ->
          Printf.sprintf "{\"name\": %s, \"unit\": %s, \"better\": %s}"
            (json_string m.name) (json_string m.unit_)
            (json_string (better_string better))
      | End_to_end _ -> assert false)
    per_layer;
  p "  ]\n";
  p "}\n";
  Buffer.contents b
