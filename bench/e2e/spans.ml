(* Span buffers for the traced run, and the per-layer time ledger built
   from them.

   Spans are taken from outside the program, around each call the
   benchmark makes into a layer, plus the writer's and reader's idle
   sleeps, under one root span per writer step or query. Each domain
   owns one buffer, preallocated from the script length, so recording is
   a few array stores and never allocates or synchronises. No Fg_obs
   sink is installed and Metrics recording stays off: an in-program sink
   would switch on the engine's own spans and delta recorder and so
   measure a different program. *)

type name =
  | Step  (** writer root: one round / publish batch / paced event *)
  | Insert
  | Delete
  | Delete_batch
  | Publish
  | Writer_idle
  | Query  (** reader root: one query *)
  | Reader_idle
  | Serve_distance
  | Serve_path
  | Serve_degree

let names =
  [| Step; Insert; Delete; Delete_batch; Publish; Writer_idle; Query; Reader_idle;
     Serve_distance; Serve_path; Serve_degree |]

let index = function
  | Step -> 0
  | Insert -> 1
  | Delete -> 2
  | Delete_batch -> 3
  | Publish -> 4
  | Writer_idle -> 5
  | Query -> 6
  | Reader_idle -> 7
  | Serve_distance -> 8
  | Serve_path -> 9
  | Serve_degree -> 10

let label = function
  | Step -> "step"
  | Insert -> "insert"
  | Delete -> "delete"
  | Delete_batch -> "delete_batch"
  | Publish -> "publish"
  | Writer_idle -> "writer.idle"
  | Query -> "query"
  | Reader_idle -> "reader.idle"
  | Serve_distance -> "serve.distance"
  | Serve_path -> "serve.path"
  | Serve_degree -> "serve.degree"

let layer = function
  | Step | Query -> "bench"
  | Insert -> "forgiving_graph.insert"
  | Delete -> "forgiving_graph.delete"
  | Delete_batch -> "forgiving_graph.delete_batch"
  | Publish -> "forgiving_graph.publish"
  | Writer_idle -> "writer.idle"
  | Reader_idle -> "reader.idle"
  | Serve_distance | Serve_path | Serve_degree -> "serve"

type buf = {
  domain : int;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;
  mutable len : int;
}

let create ~domain cap =
  {
    domain;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    len = 0;
  }

(* A root is reserved when it opens (its children need its index) and
   filled in when it closes. *)
let reserve b =
  let i = b.len in
  b.len <- i + 1;
  i

let set b i nm ~parent ~start ~stop =
  b.name.(i) <- index nm;
  b.start.(i) <- start;
  b.stop.(i) <- stop;
  b.parent.(i) <- parent

let add b nm ~parent ~start ~stop = set b (reserve b) nm ~parent ~start ~stop

(* ---- ledger ---- *)

type ledger = {
  count : int array;  (** spans per name *)
  self_ns : int array;  (** summed self time per name *)
  durations : int array array;  (** per name, each span's self time *)
  covered_ns : int;  (** self time of every span on the domain *)
}

(* Self time = duration minus the part its children cover; children never
   overlap each other, so that is the sum of their durations. *)
let ledger b =
  let self = Array.init b.len (fun i -> b.stop.(i) - b.start.(i)) in
  for i = 0 to b.len - 1 do
    let p = b.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - (b.stop.(i) - b.start.(i))
  done;
  let k = Array.length names in
  let count = Array.make k 0 and self_ns = Array.make k 0 in
  for i = 0 to b.len - 1 do
    count.(b.name.(i)) <- count.(b.name.(i)) + 1;
    self_ns.(b.name.(i)) <- self_ns.(b.name.(i)) + self.(i)
  done;
  let fill = Array.make k 0 in
  let durations = Array.map (fun c -> Array.make c 0) count in
  for i = 0 to b.len - 1 do
    let n = b.name.(i) in
    durations.(n).(fill.(n)) <- self.(i);
    fill.(n) <- fill.(n) + 1
  done;
  { count; self_ns; durations; covered_ns = Array.fold_left ( + ) 0 self_ns }

let count l nm = l.count.(index nm)
let self_ns l nm = l.self_ns.(index nm)
let durations l nm = l.durations.(index nm)

(* JSONL, one span a line; [id]s are unique across the run's domains and
   times are ns since the timed phase began. *)
let write oc ~workload ~origin bufs =
  let base = ref 0 in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        let nm = names.(b.name.(i)) in
        Printf.fprintf oc
          "{\"workload\":%S,\"id\":%d,\"name\":%S,\"layer\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"domain\":%d}\n"
          workload (!base + i) (label nm) (layer nm) (b.start.(i) - origin) (b.stop.(i) - origin)
          (if b.parent.(i) < 0 then -1 else !base + b.parent.(i))
          b.domain
      done;
      base := !base + b.len)
    bufs
