(* Reference model and correctness checks.  The model is a persistent
   ordered map, so freezing it at a snapshot pin is free and a range
   count is a bounded walk; it is only ever consulted outside the timed
   region, replaying the recorded outputs after the measured phase. *)

module W = Ff_workload.Workload
module IM = Map.Make (Int)

type model = int IM.t

(* Violations: a count plus the first few messages for the report. *)
type log = { mutable count : int; mutable first : string list }

let log () = { count = 0; first = [] }

let fail log fmt =
  Printf.ksprintf
    (fun s ->
      log.count <- log.count + 1;
      if log.count <= 5 then log.first <- log.first @ [ s ])
    fmt

let ok log = log.count = 0
let of_pairs pairs = Array.fold_left (fun m (k, v) -> IM.add k v m) IM.empty pairs

let range_count (m : model) lo hi =
  let rec go n s =
    match s () with
    | Seq.Cons ((k, _), rest) when k <= hi -> go (n + 1) rest
    | _ -> n
  in
  go 0 (IM.to_seq_from lo m)

(* One op under {!Ff_workload.Workload.run_op}'s checksum rules; returns
   the updated model and the op's checksum contribution. *)
let apply_op (m : model) = function
  | W.Insert k -> (IM.add k (W.value_of k) m, 1)
  | W.Search k -> (m, match IM.find_opt k m with Some v -> v land 0xff | None -> 0)
  | W.Delete k -> if IM.mem k m then (IM.remove k m, 1) else (m, 0)
  | W.Range (lo, len) -> (m, range_count m lo (lo + (len * 4)))

(* Expected [Shard.submit] checksum of a request: the scheduler
   guarantees it equals sequential execution. *)
let submit m ops =
  Array.fold_left
    (fun (m, acc) op ->
      let m, c = apply_op m op in
      (m, acc + c))
    (m, 0) ops

let slice (m : model) lo hi =
  let rec go acc s =
    match s () with
    | Seq.Cons ((k, v), rest) when k <= hi -> go ((k, v) :: acc) rest
    | _ -> List.rev acc
  in
  go [] (IM.to_seq_from lo m)

(* Compare an ascending scan of the whole store against the model.
   Returns (lost, extra): acknowledged bindings missing or wrong, and
   keys the model does not hold. *)
let readback (m : model) scan =
  let lost = ref 0 and extra = ref 0 and seen = ref 0 in
  scan (fun k v ->
      match IM.find_opt k m with
      | Some v' when v' = v -> incr seen
      | Some _ -> incr lost; incr seen
      | None -> incr extra);
  (!lost + (IM.cardinal m - !seen), !extra)
