(* The four workloads.  Each one generates its whole input from the seed
   before the clock starts.  It then [repeats] times builds and loads a
   fresh system and runs the same measured phase on it, a closed loop
   with one client; wall-clock figures are medians over those phases.
   The recorded outputs of every phase are replayed against the
   reference model.  Finally the last system is crashed and recovered
   [crashes] times, and every acknowledged write must read back.

   A request is one Shard.submit of a fixed-size op array, one
   Shard.txn, or one Cluster.put/get.  A turn is a request plus the
   maintenance the client issues on a fixed cadence right after it
   (snapshot pin/audit/gc, Cluster.tick).  Latency is sampled around the
   request alone; the maintenance counts in throughput and in the
   simulated total, not in the latency samples.
   The measured work is fixed by the seed and [seconds]: each phase
   does [seconds / phases_per_run] times the workload's nominal rate on
   the reference machine, so the simulated metrics repeat exactly for a
   seed. *)

module Shard = Ff_shard.Shard
module Cluster = Ff_cluster.Cluster
module W = Ff_workload.Workload
module Prng = Ff_util.Prng
module Zipf = Ff_util.Zipf
module Config = Ff_pmem.Config
module Arena = Ff_pmem.Arena
module Stats = Ff_pmem.Stats
module Storelog = Ff_pmem.Storelog
module Trace = Ff_trace.Trace
module Metrics = Ff_trace.Metrics
module Scrub = Ff_scrub.Scrub
module IM = Oracle.IM

type knobs = {
  scale : float;  (** multiplies every key count and line cache, see [pm] *)
  seconds : float;  (** measured work of a whole run, see [phases_per_run] *)
  repeats : int;  (** builds, each followed by a measured phase *)
  crashes : int;
  traced : bool;
  tamper : bool;  (** corrupt one expected value: the oracle must object *)
}

let phases_per_run = 3

let default_knobs ~seconds =
  {
    scale = 1.;
    seconds;
    repeats = phases_per_run;
    crashes = 7;
    traced = false;
    tamper = false;
  }

let scaled k n = max 16 (int_of_float (k.scale *. float_of_int n))

(* Requests in one phase. *)
let requests_for k ~rate ~per =
  let phase_s = k.seconds /. float_of_int phases_per_run in
  max 4 (int_of_float (phase_s *. float_of_int rate /. float_of_int per))

(* The simulated line cache shrinks with the data, down to 1024 lines,
   so a small run keeps the workload's cache-to-data ratio. *)
let pm k lines =
  let cache_lines = max 1024 (scaled k lines) in
  { (Config.pm ~read_ns:300 ~write_ns:300 ()) with Config.cache_lines }

let rng_for seed i = Prng.create (W.shard_seed ~base:seed ~shard:i)
let shards = 4

(* ------------------------------------------------------------------ *)
(* Shared machinery                                                    *)
(* ------------------------------------------------------------------ *)

(* Build and measure [k.repeats] times on the same inputs: returns each
   build's set-up seconds with its phase's result, the last system, and
   the peak heap in MB as it stood right after the last phase, before any
   probe or crash cycle allocates.  Each earlier system is torn down and
   collected before the next build, so builds never coexist. *)
let repeat k ~build ~discard ~phase =
  let cur = ref None and runs = ref [] in
  for _ = 1 to max 1 k.repeats do
    Option.iter discard !cur;
    cur := None;
    Gc.full_major ();
    let t0 = Clock.now_s () in
    let s = build () in
    let setup_s = Clock.now_s () -. t0 in
    Gc.full_major ();
    runs := (setup_s, phase s) :: !runs;
    cur := Some s
  done;
  (List.rev !runs, Option.get !cur, Report.heap_peak_mb ())

let last l = List.nth l (List.length l - 1)

(* The closed loop.  Wall and simulated time are sampled around
   [request i] alone; simulated time is read outside the wall-clock
   window.  [after i], the turn's cadence maintenance, runs outside both
   samples but inside the phase's wall and simulated totals.  The caller
   fills in [failed] and [ops]. *)
let measure ~requests ~sim_now ?(after = ignore) request =
  let lat = Array.make requests 0 and sim = Array.make requests 0 in
  let wall = ref 0 in
  let start = sim_now () in
  for i = 0 to requests - 1 do
    let s0 = sim_now () in
    let t0 = Clock.now_ns () in
    request i;
    let t1 = Clock.now_ns () in
    sim.(i) <- sim_now () - s0;
    lat.(i) <- t1 - t0;
    let t2 = Clock.now_ns () in
    after i;
    wall := !wall + (t1 - t0) + (Clock.now_ns () - t2)
  done;
  {
    Report.requests;
    failed = 0;
    ops = 0;
    lat_ns = lat;
    sim_ns = sim;
    wall_ns = !wall;
    sim_total_ns = sim_now () - start;
  }

type gc_mark = { minor : float; major : int }

let gc_mark () =
  { minor = Gc.minor_words (); major = (Gc.quick_stat ()).Gc.major_collections }

let gc_layers a b ~ops =
  [
    ("gc.minor_words_per_op", (b.minor -. a.minor) /. float_of_int (max 1 ops));
    ("gc.major_collections", float_of_int (b.major - a.major));
  ]

let span_layers spans =
  let table = Spans.layer_table spans in
  let self l =
    match List.find_opt (fun (l', _, _, _) -> l' = l) table with
    | Some (_, s, _, _) -> s
    | None -> 0.
  in
  [
    ("client.self_s", self "client");
    ("shard.self_s", self "shard");
    ("snapshot.self_s", self "snapshot");
    ("cluster.self_s", self "cluster");
    ("shard.busy_s", Spans.busy spans (fun n -> Spans.layer_of n = "shard"));
  ]

let tracer_for k = if k.traced then Trace.create ~capacity:(1 lsl 16) () else Trace.null

let tree_counters tracer =
  let m = Trace.metrics tracer in
  ( Metrics.counter_prefix_sum m "fastfair.splits",
    Metrics.counter_value m "fastfair.sibling_chase" )

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------------------------------------------------ *)
(* Shard ensembles                                                     *)
(* ------------------------------------------------------------------ *)

type ens = { t : Shard.t; tracer : Trace.t }

let ens_create k ~cfg ~words ~partition ~inner =
  let tracer = tracer_for k in
  let t = Shard.create ~pm_config:cfg ~words ~partition ~tracer ~inner ~shards () in
  if k.traced then Array.iter (Trace.attach_arena tracer) (Shard.arenas t);
  { t; tracer }

let sim_now t =
  Array.fold_left
    (fun a x -> a + Stats.total_ns (Arena.total_stats x))
    0 (Shard.arenas t)

let stats_sum t =
  let acc = Stats.create () in
  Array.iter (fun a -> Stats.add acc (Arena.total_stats a)) (Shard.arenas t);
  acc

let used_words t =
  Array.fold_left (fun a x -> a + Arena.used_words x) 0 (Shard.arenas t)

(* Counters read at both ends of the measured phase. *)
type mark = {
  st : Stats.t;
  batches : int;
  routed : int array;
  sites : (string * int) list;
  tree : int * int;
  gc : gc_mark;
}

let mark e =
  {
    st = stats_sum e.t;
    batches = Shard.batches e.t;
    routed = Shard.routed e.t;
    sites = List.map (fun r -> (r.Trace.site, r.Trace.fences)) (Trace.site_table e.tracer);
    tree = tree_counters e.tracer;
    gc = gc_mark ();
  }

(* Fences per op by code site.  Every site seen is listed; the ones the
   catalogue does not name are also summed into [.other]. *)
let site_layers a b ~ops =
  let delta site =
    let v l = Option.value (List.assoc_opt site l) ~default:0 in
    v b.sites - v a.sites
  in
  let named s = List.mem s Catalog.fence_sites in
  let other =
    List.fold_left
      (fun acc (site, _) -> if named site then acc else acc + delta site)
      0 b.sites
  in
  List.map (fun (site, _) -> ("pmem.fences_per_op." ^ site, ratio (delta site) ops)) b.sites
  @ [ ("pmem.fences_per_op.other", ratio other ops) ]

let shard_layers e a b ~ops =
  let d = Stats.diff b.st a.st in
  let per x = ratio x ops in
  let routed = Array.mapi (fun i r -> r - a.routed.(i)) b.routed in
  let mx = Array.fold_left max 0 routed and sum = Array.fold_left ( + ) 0 routed in
  let retries, rejected =
    Array.fold_left
      (fun (r, j) (_, r', j') -> (r + r', j + j'))
      (0, 0) (Shard.degraded_stats e.t)
  in
  let accesses = d.Stats.line_hits + d.Stats.line_misses in
  [
    ("shard.ops_per_batch", ratio ops (b.batches - a.batches));
    ( "shard.route_imbalance",
      if sum = 0 then 0.
      else float_of_int mx /. (float_of_int sum /. float_of_int (Array.length routed)) );
    ("shard.retries", float_of_int retries);
    ("shard.rejected", float_of_int rejected);
    ("fastfair.search_sim_ns_per_op", per d.Stats.search_ns);
    ("fastfair.update_sim_ns_per_op", per d.Stats.update_ns);
    ("fastfair.splits_per_kop", 1000. *. ratio (fst b.tree - fst a.tree) ops);
    ("fastfair.sibling_chases", float_of_int (snd b.tree - snd a.tree));
    ("pmem.loads_per_op", per d.Stats.loads);
    ("pmem.stores_per_op", per d.Stats.stores);
    ("pmem.flushes_per_op", per d.Stats.flushes);
    ("pmem.fences_per_op", per d.Stats.fences);
    ("pmem.line_misses_per_op", per d.Stats.line_misses);
    ("pmem.cache_hit_ratio", ratio d.Stats.line_hits accesses);
    ("pmem.seq_miss_share", ratio d.Stats.seq_misses d.Stats.line_misses);
    ("pmem.flush_sim_ns_per_op", per d.Stats.flush_ns);
    ("pmem.fence_sim_ns_per_op", per d.Stats.fence_ns);
  ]
  @ site_layers a b ~ops @ gc_layers a.gc b.gc ~ops

(* Power failure that keeps only flushed lines, then scrubbed recovery:
   (wall seconds, simulated us) per cycle. *)
let shard_crashes k e =
  List.init k.crashes (fun _ ->
      Gc.full_major ();
      let s0 = sim_now e.t in
      let t0 = Clock.now_s () in
      Shard.power_fail e.t Storelog.Keep_none;
      Shard.recover e.t;
      let dt = Clock.now_s () -. t0 in
      (dt, float_of_int (sim_now e.t - s0) /. 1e3))

let scrub_layers e =
  let rs = Shard.scrub_reports e.t in
  let sum f = float_of_int (List.fold_left (fun a r -> a + f r) 0 rs) in
  [
    ("scrub.duration_sim_ns", sum (fun r -> r.Scrub.duration_ns));
    ("scrub.leaked_words", sum (fun r -> r.Scrub.leaked_words));
    ("scrub.repaired_lines", sum (fun r -> List.length r.Scrub.repaired_lines));
  ]

(* After the crash cycles every acknowledged binding must read back,
   and nothing else. *)
let readback log e model =
  let lost, extra =
    Oracle.readback model (fun f -> Shard.range e.t ~lo:1 ~hi:Shard.key_space_hi f)
  in
  if extra > 0 then Oracle.fail log "%d key(s) present that were never acknowledged" extra;
  if lost > 0 then Oracle.fail log "%d acknowledged write(s) lost after recovery" lost;
  lost

let bytes_per_kv ~words ~live = float_of_int (words * 8) /. float_of_int (max 1 (live * 16))

(* ------------------------------------------------------------------ *)
(* ycsb-a-large and scan-small: Shard.submit                          *)
(* ------------------------------------------------------------------ *)

let submit_run k ~name ~cfg ~partition ~load ~n_keys ~reqs ~notes =
  let requests = Array.length reqs in
  let ops = Array.fold_left (fun acc r -> acc + Array.length r) 0 reqs in
  let words = (n_keys * 16 / shards) + (1 lsl 16) in
  let build () =
    let e = ens_create k ~cfg ~words ~partition ~inner:"fastfair" in
    Shard.bulk_insert e.t load;
    e
  in
  let spans = Spans.create ~enabled:k.traced in
  let id_turn = Spans.intern spans "client.turn" in
  let id_submit = Spans.intern spans "shard.submit" in
  let phase e =
    let sums = Array.make requests 0 and failed = ref 0 in
    let a = mark e in
    let m =
      measure ~requests ~sim_now:(fun () -> sim_now e.t) (fun i ->
          Spans.span spans id_turn ~req:i (fun () ->
              sums.(i) <-
                (try
                   Spans.span spans id_submit ~req:i (fun () -> Shard.submit e.t reqs.(i))
                 with Shard.Degraded _ ->
                   incr failed;
                   -1)))
    in
    ({ m with Report.failed = !failed; ops }, sums, (a, mark e))
  in
  let runs, e, heap_mb = repeat k ~build ~discard:(fun e -> Shard.close e.t) ~phase in
  (* Every phase ran the same requests from the same loaded state, so
     each must return the model's checksums. *)
  let log = Oracle.log () in
  let model = ref (Oracle.of_pairs load) in
  let want =
    Array.map
      (fun r ->
        let m, c = Oracle.submit !model r in
        model := m;
        c)
      reqs
  in
  if k.tamper then want.(0) <- want.(0) + 1;
  List.iteri
    (fun n (_, (_, sums, _)) ->
      Array.iteri
        (fun i got ->
          if got <> want.(i) then
            Oracle.fail log "phase %d request %d: submit checksum %d, model says %d" n i
              got want.(i))
        sums)
    runs;
  let _, (_, _, (a, b)) = last runs in
  let live = IM.cardinal !model in
  let bpk = bytes_per_kv ~words:(used_words e.t) ~live in
  let largest =
    Array.fold_left (fun m a -> max m (Arena.used_words a)) 0 (Shard.arenas e.t)
  in
  let notes =
    notes
    @ [
        Printf.sprintf "%d live keys; largest shard image %d lines against a %d-line cache"
          live (largest / Arena.words_per_line) cfg.Config.cache_lines;
      ]
  in
  let crashes = shard_crashes k e in
  let lost = if k.crashes > 0 then readback log e !model else 0 in
  {
    Report.workload = name;
    setup_s = List.map fst runs;
    phases = List.map (fun (_, (p, _, _)) -> p) runs;
    recovery_s = List.map fst crashes;
    recovery_sim_us = List.map snd crashes;
    bytes_per_kv = bpk;
    heap_peak_mb = heap_mb;
    log;
    lost_acked = lost;
    layers =
      shard_layers e a b ~ops
      @ (if k.crashes > 0 then scrub_layers e else [])
      @ span_layers spans;
    spans;
    notes;
  }

let ycsb_a_large k ~seed =
  let rng = rng_for seed 0 in
  let per = 32 in
  let requests = requests_for k ~rate:35_000 ~per in
  let n_load = scaled k 40_000 in
  let coins = Array.init (requests * per) (fun _ -> Prng.int rng 2 = 0) in
  let n_ins = Array.fold_left (fun n c -> if c then n + 1 else n) 0 coins in
  let n_keys = n_load + n_ins in
  let keys = W.distinct_uniform rng ~n:n_keys ~space:(8 * n_keys) in
  let next = ref n_load in
  let op i =
    if coins.(i) then begin
      let key = keys.(!next) in
      incr next;
      W.Insert key
    end
    else W.Search keys.(Prng.int rng !next)
  in
  let reqs = Array.init requests (fun r -> Array.init per (fun j -> op ((r * per) + j))) in
  let load = Array.init n_load (fun i -> (keys.(i), W.value_of keys.(i))) in
  submit_run k ~name:"ycsb-a-large" ~cfg:(pm k 1024)
    ~partition:(Shard.Partition.hash ~shards) ~load ~n_keys ~reqs ~notes:[]

let scan_small k ~seed =
  let rng = rng_for seed 1 in
  let per = 16 in
  let requests = requests_for k ~rate:70_000 ~per in
  let n_load = scaled k 8_000 in
  let kinds = Array.init (requests * per) (fun _ -> Prng.int rng 100) in
  let n_ins = Array.fold_left (fun n r -> if r >= 95 then n + 1 else n) 0 kinds in
  let n_keys = n_load + n_ins in
  (* Range (lo, len) scans [lo, lo + 4 len], which holds about len keys
     at density 1/4.  The key space is 4x the final key count and the
     store grows from n_load keys, so each scan's len is stretched by
     n_keys / present: every scan returns about its drawn 1-100 keys
     and the scan cost does not drift over the run. *)
  let keys = W.distinct_uniform rng ~n:n_keys ~space:(4 * n_keys) in
  let loaded = Array.sub keys 0 n_load in
  let hot = Array.copy loaded in
  Prng.shuffle rng hot;
  let zipf = Zipf.create ~n:n_load ~theta:0.99 in
  let next = ref n_load in
  let op i =
    let r = kinds.(i) in
    if r < 45 then W.Search hot.(Zipf.sample zipf rng)
    else if r < 95 then begin
      let lo = hot.(Zipf.sample zipf rng) in
      W.Range (lo, (1 + Prng.int rng 100) * n_keys / !next)
    end
    else begin
      let key = keys.(!next) in
      incr next;
      W.Insert key
    end
  in
  let reqs = Array.init requests (fun r -> Array.init per (fun j -> op ((r * per) + j))) in
  let sorted = Array.copy loaded in
  Array.sort compare sorted;
  let bounds = Array.init (shards - 1) (fun i -> sorted.((i + 1) * n_load / shards)) in
  let load = Array.map (fun key -> (key, W.value_of key)) loaded in
  let partition = Shard.Partition.range ~bounds in
  let crossing =
    Array.fold_left
      (fun acc r ->
        Array.fold_left
          (fun acc op ->
            match op with
            | W.Range (lo, len) ->
                let a, b = Shard.Partition.overlapping partition ~lo ~hi:(lo + (4 * len)) in
                if a <> b then acc + 1 else acc
            | _ -> acc)
          acc r)
      0 reqs
  in
  submit_run k ~name:"scan-small" ~cfg:(pm k 16384) ~partition ~load ~n_keys ~reqs
    ~notes:[ Printf.sprintf "%d scans cross a shard boundary" crossing ]

(* ------------------------------------------------------------------ *)
(* txn-snapshot: Shard.txn on snap-fastfair, periodic pins             *)
(* ------------------------------------------------------------------ *)

let period = 64

(* What one txn-snapshot phase records for the replay. *)
type txn_out = {
  reads : int array;  (** value each txn_get returned, 0 = absent *)
  committed : bool array;
  fresh : (int * int) list array;  (** audit at each pin *)
  stale : (int * int) list array;  (** re-audit of the previous pin *)
  epochs : int array;
  mutable freed : int;
  mutable pin_sim : int;
  mutable commit_sim : int;
  mutable audit_keys : int;
}

let txn_snapshot k ~seed =
  let rng = rng_for seed 2 in
  let requests = requests_for k ~rate:3_400 ~per:1 in
  let n_load = scaled k 20_000 in
  let space = 8 * n_load in
  let keys = W.distinct_uniform rng ~n:n_load ~space in
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  let txns =
    Array.init requests (fun _ ->
        let m = 2 + Prng.int rng 3 in
        let picked = ref [] in
        while List.length !picked < m do
          let key = keys.(Prng.int rng n_load) in
          if not (List.mem key !picked) then picked := key :: !picked
        done;
        Array.of_list !picked)
  in
  (* Write j's value: odd, unique, and disjoint from the loaded values. *)
  let base = Array.make (requests + 1) 0 in
  Array.iteri (fun i t -> base.(i + 1) <- base.(i) + Array.length t) txns;
  let value j = W.value_of (space + 1 + j) in
  let window = min 256 n_load in
  let maint = requests / period in
  let windows =
    Array.init maint (fun _ ->
        let s = Prng.int rng (n_load - window + 1) in
        (sorted.(s), sorted.(s + window - 1)))
  in
  let load = Array.map (fun key -> (key, W.value_of key)) keys in
  let cfg = pm k 1024 in
  let words = (n_load * 64 / shards) + (1 lsl 17) in
  let build () =
    let e =
      ens_create k ~cfg ~words ~partition:(Shard.Partition.hash ~shards)
        ~inner:"snap-fastfair"
    in
    Shard.bulk_insert e.t load;
    e
  in
  let spans = Spans.create ~enabled:k.traced in
  let id n = Spans.intern spans n in
  let id_turn = id "client.turn" and id_txn = id "shard.txn" in
  let id_get = id "shard.txn_get" and id_put = id "shard.txn_put" in
  let id_maint = id "client.maintenance" in
  let id_pin = id "snapshot.pin" and id_audit = id "snapshot.audit" in
  let id_gc = id "snapshot.gc" in
  let phase e =
    let o =
      {
        reads = Array.make base.(requests) 0;
        committed = Array.make requests false;
        fresh = Array.make maint [];
        stale = Array.make maint [];
        epochs = Array.make maint 0;
        freed = 0;
        pin_sim = 0;
        commit_sim = 0;
        audit_keys = 0;
      }
    in
    let failed = ref 0 and body_end = ref 0 in
    let sim () = sim_now e.t in
    let audit req m epoch =
      let lo, hi = windows.(m) in
      let acc = ref [] in
      Spans.span spans id_audit ~req (fun () ->
          Shard.range_at e.t ~epoch ~lo ~hi (fun key v -> acc := (key, v) :: !acc));
      o.audit_keys <- o.audit_keys + List.length !acc;
      List.rev !acc
    in
    let maintenance i m =
      Spans.span spans id_maint ~req:i @@ fun () ->
      let s0 = if k.traced then sim () else 0 in
      let g = Spans.span spans id_pin ~req:i (fun () -> Shard.snapshot_begin e.t) in
      if k.traced then o.pin_sim <- o.pin_sim + (sim () - s0);
      o.epochs.(m) <- g;
      o.fresh.(m) <- audit i m g;
      if m > 0 then o.stale.(m) <- audit i (m - 1) o.epochs.(m - 1);
      o.freed <- o.freed + Spans.span spans id_gc ~req:i (fun () -> Shard.gc_before e.t g)
    in
    let a = mark e in
    let m =
      measure ~requests ~sim_now:sim (fun i ->
          Spans.span spans id_turn ~req:i (fun () ->
              let t = txns.(i) in
              let r =
                Spans.span spans id_txn ~req:i (fun () ->
                    Shard.txn e.t (fun x ->
                        Array.iteri
                          (fun j key ->
                            let w = base.(i) + j in
                            o.reads.(w) <-
                              Option.value ~default:0
                                (Spans.span spans id_get ~req:i (fun () ->
                                     Shard.txn_get x key));
                            Spans.span spans id_put ~req:i (fun () ->
                                Shard.txn_put x key (value w)))
                          t;
                        if k.traced then body_end := sim ()))
              in
              if k.traced then o.commit_sim <- o.commit_sim + (sim () - !body_end);
              match r with Ok () -> o.committed.(i) <- true | Error _ -> incr failed))
        ~after:(fun i ->
          if (i + 1) mod period = 0 then maintenance i (((i + 1) / period) - 1))
    in
    let b = mark e in
    let ops = Array.fold_left (fun n c -> if c then n + 1 else n) 0 o.committed in
    let commits, aborts, _ = Shard.tx_stats e.t in
    ({ m with Report.failed = !failed; ops }, o, (a, b, commits, aborts))
  in
  let runs, e, heap_mb = repeat k ~build ~discard:(fun e -> Shard.close e.t) ~phase in
  (* Replay each phase: every read saw the model as of its transaction,
     and every audit, at its pin and again one period later, saw the
     model frozen at the pin. *)
  let log = Oracle.log () in
  let replay n o =
    let model = ref (Oracle.of_pairs load) in
    let frozen = Array.make maint IM.empty in
    let check_audit what m got =
      let lo, hi = windows.(m) in
      let want = Oracle.slice frozen.(m) lo hi in
      if got <> want then
        Oracle.fail log
          "phase %d: %s audit of epoch %d over [%d, %d]: %d bindings, model has %d" n
          what o.epochs.(m) lo hi (List.length got) (List.length want)
    in
    Array.iteri
      (fun i t ->
        Array.iteri
          (fun j key ->
            let w = base.(i) + j in
            let want = Option.value (IM.find_opt key !model) ~default:0 in
            let want = if k.tamper && w = 0 then want + 2 else want in
            if o.reads.(w) <> want then
              Oracle.fail log "phase %d: txn %d read key %d = %d, model says %d" n i key
                o.reads.(w) want)
          t;
        if o.committed.(i) then
          Array.iteri (fun j key -> model := IM.add key (value (base.(i) + j)) !model) t;
        if (i + 1) mod period = 0 then begin
          let m = ((i + 1) / period) - 1 in
          frozen.(m) <- !model;
          check_audit "pin-time" m o.fresh.(m);
          if m > 0 then check_audit "later" (m - 1) o.stale.(m)
        end)
      txns;
    !model
  in
  let model = last (List.mapi (fun n (_, (_, o, _)) -> replay n o) runs) in
  let _, (p, o, (a, b, commits, aborts)) = last runs in
  let live = IM.cardinal model in
  let bpk = bytes_per_kv ~words:(used_words e.t) ~live in
  let cross =
    Array.fold_left
      (fun n t ->
        let s0 = Shard.shard_of_key e.t t.(0) in
        if Array.exists (fun key -> Shard.shard_of_key e.t key <> s0) t then n + 1 else n)
      0 txns
  in
  let ops = p.Report.ops in
  let fences = (Stats.diff b.st a.st).Stats.fences in
  let crashes = shard_crashes k e in
  let _, _, replays = Shard.tx_stats e.t in
  let lost = if k.crashes > 0 then readback log e model else 0 in
  let audit_wall = Spans.busy spans (fun n -> n = "snapshot.audit") in
  {
    Report.workload = "txn-snapshot";
    setup_s = List.map fst runs;
    phases = List.map (fun (_, (p, _, _)) -> p) runs;
    recovery_s = List.map fst crashes;
    recovery_sim_us = List.map snd crashes;
    bytes_per_kv = bpk;
    heap_peak_mb = heap_mb;
    log;
    lost_acked = lost;
    layers =
      shard_layers e a b ~ops
      @ [
          ("tx.commits", float_of_int commits);
          ("tx.aborts", float_of_int aborts);
          ("tx.replays", float_of_int replays);
          ("tx.fences_per_txn", ratio fences ops);
          ("tx.commit_sim_ns", ratio o.commit_sim ops);
          ("tx.cross_shard_share", ratio cross requests);
          ("snapshot.pin_sim_ns", ratio o.pin_sim maint);
          ( "snapshot.audit_keys_per_s",
            if audit_wall > 0. then float_of_int o.audit_keys /. audit_wall else 0. );
          ("snapshot.gc_freed_lines", float_of_int o.freed);
        ]
      @ (if k.crashes > 0 then scrub_layers e else [])
      @ span_layers spans;
    spans;
    notes =
      [
        Printf.sprintf "%d snapshot pins, %d audits, %d of %d txns cross shards" maint
          ((2 * maint) - 1) cross requests;
      ];
  }

(* ------------------------------------------------------------------ *)
(* replicated: Cluster.put / Cluster.get                               *)
(* ------------------------------------------------------------------ *)

let tick_every = 16

(* Result codes recorded per request: a get's value (0 = absent), a
   put's 1, or a negative refusal. *)
let code_of_err = function Cluster.Read_only -> -1 | Cluster.Unavailable -> -2

let replicated k ~seed =
  let rng = rng_for seed 3 in
  let cfg = { Cluster.default with Cluster.seed = W.shard_seed ~base:seed ~shard:7 } in
  let requests = requests_for k ~rate:52_000 ~per:1 in
  let n_load = scaled k 8_000 in
  let space = 8 * n_load in
  let keys = W.distinct_uniform rng ~n:n_load ~space in
  let is_put = Array.init requests (fun _ -> Prng.int rng 2 = 0) in
  let key = Array.init requests (fun _ -> keys.(Prng.int rng n_load)) in
  let value i = W.value_of (space + 1 + i) in
  let log = Oracle.log () in
  let tracer = tracer_for k in
  let build () =
    let c = Cluster.create ~tracer cfg in
    Array.iter
      (fun key ->
        match Cluster.put c key (W.value_of key) with
        | Ok () -> ()
        | Error _ -> Oracle.fail log "load put of key %d refused" key)
      keys;
    c
  in
  let spans = Spans.create ~enabled:k.traced in
  let id n = Spans.intern spans n in
  let id_turn = id "client.turn" and id_put = id "cluster.put" in
  let id_get = id "cluster.get" and id_tick = id "cluster.tick" in
  let id_maint = id "client.maintenance" in
  let phase c =
    let res = Array.make requests 0 in
    let before = (Cluster.stats c, Cluster.fences c, tree_counters tracer, gc_mark ()) in
    let m =
      measure ~requests ~sim_now:(fun () -> Cluster.now_ns c) (fun i ->
          Spans.span spans id_turn ~req:i (fun () ->
              let key = key.(i) in
              res.(i) <-
                (if is_put.(i) then
                   match
                     Spans.span spans id_put ~req:i (fun () -> Cluster.put c key (value i))
                   with
                   | Ok () -> 1
                   | Error e -> code_of_err e
                 else
                   match Spans.span spans id_get ~req:i (fun () -> Cluster.get c key) with
                   | Ok (Some v) -> v
                   | Ok None -> 0
                   | Error e -> code_of_err e)))
        ~after:(fun i ->
          if (i + 1) mod tick_every = 0 then
            Spans.span spans id_maint ~req:i (fun () ->
                Spans.span spans id_tick ~req:i (fun () -> Cluster.tick c)))
    in
    let after = (Cluster.stats c, Cluster.fences c, tree_counters tracer, gc_mark ()) in
    let failed = Array.fold_left (fun n r -> if r < 0 then n + 1 else n) 0 res in
    ({ m with Report.failed; ops = requests }, res, (before, after))
  in
  let runs, c, heap_mb = repeat k ~build ~discard:Cluster.close ~phase in
  (* Replay each phase.  A refused put leaves its key ambiguous (the
     write may or may not have landed), so later reads of it are not
     judged. *)
  let replay n res =
    let model = Hashtbl.create n_load and ambiguous = Hashtbl.create 16 in
    Array.iter (fun key -> Hashtbl.replace model key (W.value_of key)) keys;
    for i = 0 to requests - 1 do
      let key = key.(i) in
      if is_put.(i) then
        if res.(i) = 1 then Hashtbl.replace model key (value i)
        else Hashtbl.replace ambiguous key ()
      else if res.(i) >= 0 && not (Hashtbl.mem ambiguous key) then begin
        let want = Hashtbl.find model key in
        let want = if k.tamper && i = 1 then want + 2 else want in
        if res.(i) <> want then
          Oracle.fail log "phase %d: get %d of key %d returned %d, last acked put was %d"
            n i key res.(i) want
      end
    done;
    (model, ambiguous)
  in
  let model, ambiguous = last (List.mapi (fun n (_, (_, res, _)) -> replay n res) runs) in
  let _, (_, res, ((s0, f0, tr0, g0), (s1, f1, tr1, g1))) = last runs in
  let puts_ok = ref 0 in
  Array.iteri (fun i r -> if is_put.(i) && r = 1 then incr puts_ok) res;
  let live = Hashtbl.length model in
  (* Replica image size: Cluster.resync ships the primary's used words
     to the backup and charges ship_ns_per_word per word to the fabric
     clock; afterwards both replicas hold that image. *)
  let image_words =
    List.fold_left
      (fun acc s ->
        let t0 = Cluster.now_ns c in
        let ok = Cluster.resync c ~shard:s in
        Gc.full_major ();
        if not ok then Oracle.fail log "resync of shard %d refused" s;
        acc + ((Cluster.now_ns c - t0) / cfg.Cluster.ship_ns_per_word))
      0
      (List.init cfg.Cluster.shards Fun.id)
  in
  let bpk = bytes_per_kv ~words:(2 * image_words) ~live in
  let key_on s =
    match Array.find_opt (fun key -> Cluster.shard_of_key c key = s) keys with
    | Some key -> key
    | None -> keys.(0)
  in
  let crashes =
    List.init k.crashes (fun cycle ->
        let s = cycle mod cfg.Cluster.shards in
        let victim = Cluster.primary_of c ~shard:s in
        let probe = key_on s in
        Gc.full_major ();
        let n0 = Cluster.now_ns c in
        let t0 = Clock.now_s () in
        (* Service has resumed once the shard serves a read (after the
           failover) and acknowledges a write (after the restart's
           resync gives it a backup again). *)
        Cluster.kill_node ~mode:Storelog.Keep_none c victim;
        let rec serve n call = n > 0 && (Result.is_ok (call ()) || serve (n - 1) call) in
        let read = serve 8 (fun () -> Cluster.get c probe) in
        Cluster.restart_node c victim;
        let v = value (requests + cycle) in
        let wrote = serve 8 (fun () -> Cluster.put c probe v) in
        let dt = Clock.now_s () -. t0 in
        let sim_us = float_of_int (Cluster.now_ns c - n0) /. 1e3 in
        if wrote then Hashtbl.replace model probe v else Hashtbl.replace ambiguous probe ();
        if not (read && wrote) then
          Oracle.fail log "crash %d: shard %d did not serve again" cycle s;
        for s = 0 to cfg.Cluster.shards - 1 do
          if Cluster.read_only c ~shard:s then
            Oracle.fail log "crash %d: shard %d still read-only after restart" cycle s
        done;
        (dt, sim_us))
  in
  let lost = ref 0 in
  if k.crashes > 0 then
    Hashtbl.iter
      (fun key want ->
        if not (Hashtbl.mem ambiguous key) then
          match Cluster.get c key with
          | Ok (Some v) when v = want -> ()
          | _ -> incr lost)
      model;
  if !lost > 0 then Oracle.fail log "%d acknowledged put(s) lost" !lost;
  let s2 = Cluster.stats c in
  let sent = s1.Cluster.s_rpc_sent - s0.Cluster.s_rpc_sent in
  let records = s1.Cluster.s_repl_records - s0.Cluster.s_repl_records in
  {
    Report.workload = "replicated";
    setup_s = List.map fst runs;
    phases = List.map (fun (_, (p, _, _)) -> p) runs;
    recovery_s = List.map fst crashes;
    recovery_sim_us = List.map snd crashes;
    bytes_per_kv = bpk;
    heap_peak_mb = heap_mb;
    log;
    lost_acked = !lost;
    layers =
      [
        ("fastfair.splits_per_kop", 1000. *. ratio (fst tr1 - fst tr0) requests);
        ("fastfair.sibling_chases", float_of_int (snd tr1 - snd tr0));
        ("cluster.repl_records_per_write", ratio records !puts_ok);
        ( "cluster.resent_ratio",
          ratio (s1.Cluster.s_repl_resent - s0.Cluster.s_repl_resent) records );
        ("cluster.fences_per_op", ratio (f1 - f0) requests);
        ("cluster.failovers", float_of_int s2.Cluster.s_failovers);
        ( "cluster.blackout_sim_us",
          float_of_int (max 0 s2.Cluster.s_last_blackout_ns) /. 1e3 );
        ( "cluster.read_only",
          float_of_int (s2.Cluster.s_read_only - s0.Cluster.s_read_only) );
        ( "cluster.unavailable",
          float_of_int (s2.Cluster.s_unavailable - s0.Cluster.s_unavailable) );
        ("net.rpc_per_op", ratio sent requests);
        ( "net.drop_ratio",
          ratio (s1.Cluster.s_rpc_dropped - s0.Cluster.s_rpc_dropped) sent );
        ("net.dup_ratio", ratio (s1.Cluster.s_rpc_dup - s0.Cluster.s_rpc_dup) sent);
      ]
      @ gc_layers g0 g1 ~ops:requests @ span_layers spans;
    spans;
    notes = [ Printf.sprintf "%d live keys, %d replica image words" live (2 * image_words) ];
  }

let all =
  [
    ("ycsb-a-large", ycsb_a_large);
    ("scan-small", scan_small);
    ("txn-snapshot", txn_snapshot);
    ("replicated", replicated);
  ]
