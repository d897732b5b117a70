(* The traced run's own spans: one per call the benchmark makes into a
   layer, with name, start, end, parent span and request id.  Spans are
   kept in growable int arrays and written out once, at exit.  A
   disabled recorder costs one field test per call. *)

type t = {
  on : bool;
  mutable n : int;
  mutable name : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
  mutable names : string array;
  ids : (string, int) Hashtbl.t;
}

let create ~enabled =
  let cap = if enabled then 1 lsl 16 else 0 in
  {
    on = enabled;
    n = 0;
    name = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap 0;
    req = Array.make cap 0;
    open_ = -1;
    names = [||];
    ids = Hashtbl.create 16;
  }

let intern t s =
  match Hashtbl.find_opt t.ids s with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      t.names <- Array.append t.names [| s |];
      Hashtbl.replace t.ids s i;
      i

let grow t =
  let cap = 2 * Array.length t.name in
  let g a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- g t.name;
  t.t0 <- g t.t0;
  t.t1 <- g t.t1;
  t.parent <- g t.parent;
  t.req <- g t.req

(* [span t id ~req f] runs [f] inside a span named [id]. *)
let span t id ~req f =
  if not t.on then f ()
  else begin
    if t.n = Array.length t.name then grow t;
    let i = t.n in
    t.n <- i + 1;
    t.name.(i) <- id;
    t.parent.(i) <- t.open_;
    t.req.(i) <- req;
    t.open_ <- i;
    t.t0.(i) <- Clock.now_ns ();
    Fun.protect
      ~finally:(fun () ->
        t.t1.(i) <- Clock.now_ns ();
        t.open_ <- t.parent.(i))
      f
  end

let count t = t.n

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* A span's self time is its duration minus its children's.  Returns
   (layer, self seconds, inclusive seconds of the layer's outermost
   spans, span count), sorted by layer name. *)
let layer_table t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.t1.(i) - t.t0.(i))
  done;
  let acc = Hashtbl.create 8 in
  for i = 0 to t.n - 1 do
    let layer = layer_of t.names.(t.name.(i)) in
    let dur = t.t1.(i) - t.t0.(i) in
    let outer =
      let p = t.parent.(i) in
      p < 0 || layer_of t.names.(t.name.(p)) <> layer
    in
    let s, inc, c = Option.value (Hashtbl.find_opt acc layer) ~default:(0, 0, 0) in
    Hashtbl.replace acc layer
      (s + dur - child.(i), (if outer then inc + dur else inc), c + 1)
  done;
  Hashtbl.fold
    (fun l (s, inc, c) xs -> (l, float s *. 1e-9, float inc *. 1e-9, c) :: xs)
    acc []
  |> List.sort compare

(* Inclusive seconds spent in spans whose name satisfies [p], counting
   only spans not nested in another matching span. *)
let busy t p =
  let total = ref 0 in
  let rec nested i =
    let q = t.parent.(i) in
    q >= 0 && (p t.names.(t.name.(q)) || nested q)
  in
  for i = 0 to t.n - 1 do
    if p t.names.(t.name.(i)) && not (nested i) then
      total := !total + (t.t1.(i) - t.t0.(i))
  done;
  float !total *. 1e-9

(* One tab-separated line per span: index, parent, request, name,
   start and duration in ns relative to the first span. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "span\tparent\treq\tname\tstart_ns\tdur_ns\n";
      let origin = if t.n > 0 then t.t0.(0) else 0 in
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" i t.parent.(i) t.req.(i)
          t.names.(t.name.(i)) (t.t0.(i) - origin) (t.t1.(i) - t.t0.(i))
      done)
