(* The sharded heal engine: per-shard staging bolted onto the flat
   engine's staged round machinery ({!Fg_core.Forgiving_graph}).

   One round:
     1. assignment — each planned repair group routes by its owner id
        through {!Shard_map.owner}; group indices land in one slice per
        shard, in canonical order,
     2. staging — [Parallel.iter] hands shard [s] its slice, which it
        journals on its private executor ({!Rt.executor}),
     3. commit — {!Fg_core.Forgiving_graph.delete_round} replays every
        journal in canonical group order, so the final state is
        byte-identical to the flat engine for any shard count.

   When any observability sink is live (trace / metrics / profiling), the
   engine is pinned serial, or K = 1, the same staging loop runs on the
   coordinator ([Parallel.iter ~domains:1]) — the sinks are not
   multi-domain-safe — and produces the same state either way. The
   [Parallel.iter] barrier orders the slice writes before staging and the
   stage reads after it. *)

module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Node_id = Fg_graph.Node_id
module Adjacency = Fg_graph.Adjacency
module Trace = Fg_obs.Trace
module Metrics = Fg_obs.Metrics
module Profile = Fg_obs.Profile
module Hdr = Fg_obs.Hdr
module Event = Fg_obs.Event

type shard_stat = {
  mutable heals : int;  (* fg-lint: single-writer shard-worker — repair groups healed by this shard *)
  mutable local_groups : int;  (* fg-lint: single-writer coordinator — every member + fresh proc home-owned *)
  mutable cross_groups : int; (* fg-lint: single-writer coordinator *)
  mutable heal_ns : int;  (* fg-lint: single-writer shard-worker — cumulative heal wall time *)
}

type round_info = {
  ri_groups : int;
  ri_staged : (int * Rt.stage) array;  (* (shard, journal), canonical order *)
}

type t = {
  fg : Fg.t;
  nshards : int;
  map : Shard_map.t;
  executors : Rt.ctx array;
  stats : shard_stat array;
  heal_hdr : Hdr.sharded;  (* shard.heal_ns *)
  mutable rounds : int; (* fg-lint: single-writer coordinator *)
  mutable serial_only : bool;  (* fg-lint: single-writer coordinator — never spawn worker domains *)
  mutable last : round_info; (* fg-lint: single-writer coordinator *)
}

let max_shards = 1024

let create ?(shards = 1) ?(block = 64) graph =
  if shards < 1 || shards > max_shards then
    invalid_arg
      (Printf.sprintf "Shard_engine.create: shards must be in 1..%d" max_shards);
  let fg = Fg.of_graph graph in
  {
    fg;
    nshards = shards;
    map = Shard_map.create ~block ~shards ~capacity:(max 1 (Adjacency.num_nodes graph)) ();
    executors = Array.init shards (fun s -> Fg.round_executor ~slot:s fg);
    stats =
      Array.init shards (fun _ ->
          { heals = 0; local_groups = 0; cross_groups = 0; heal_ns = 0 });
    heal_hdr = Metrics.hdr "shard.heal_ns";
    rounds = 0;
    serial_only = false;
    last = { ri_groups = 0; ri_staged = [||] };
  }

let fg t = t.fg
let shards t = t.nshards
let stats t = t.stats
let rounds t = t.rounds
let last_round t = t.last
let set_serial_only t b = t.serial_only <- b

let ns_since t0 =
  let dt = (Trace.wall_clock () -. t0) *. 1e9 in
  if dt > 0. then int_of_float dt else 0

(* Every victim and every fresh-leaf processor owned by [home]? *)
let group_local t ~home g =
  List.for_all (fun v -> Shard_map.owner t.map v = home) (Fg.group_members g)
  && List.for_all (fun p -> Shard_map.owner t.map p = home) (Fg.group_fresh_procs g)

(* The [exec] callback handed to {!Fg.delete_round}: assignment and
   staging. Commit belongs to [delete_round] itself, after this returns. *)
let exec_round t groups =
  t.rounds <- t.rounds + 1;
  let n = Array.length groups in
  (* assignment: the home shard of a group is where its smallest victim
     lives; [start] ends up as the slice offsets into [order] *)
  let owner = Array.make n 0 in
  let start = Array.make (t.nshards + 1) 0 in
  Array.iteri
    (fun i g ->
      let home = Shard_map.owner t.map (Fg.group_owner g) in
      owner.(i) <- home;
      start.(home + 1) <- start.(home + 1) + 1;
      let st = t.stats.(home) in
      if group_local t ~home g then st.local_groups <- st.local_groups + 1
      else st.cross_groups <- st.cross_groups + 1)
    groups;
  for s = 1 to t.nshards do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let order = Array.make n 0 in
  let fill = Array.sub start 0 t.nshards in
  Array.iteri
    (fun i s ->
      order.(fill.(s)) <- i;
      fill.(s) <- fill.(s) + 1)
    owner;
  let serial =
    t.nshards = 1 || t.serial_only || Trace.enabled () || Metrics.is_recording ()
    || Profile.enabled ()
  in
  let timed = Metrics.is_recording () in
  Fg_graph.Parallel.iter
    ~domains:(if serial then 1 else t.nshards)
    ~init:(fun () -> ())
    ~f:(fun () s ->
      let ex = t.executors.(s) and st = t.stats.(s) in
      for k = start.(s) to start.(s + 1) - 1 do
        let t0 = Trace.wall_clock () in
        Fg.heal_group_staged t.fg ~executor:ex groups.(order.(k));
        let dt = ns_since t0 in
        st.heals <- st.heals + 1;
        st.heal_ns <- st.heal_ns + dt;
        if timed then Hdr.record_sharded t.heal_hdr dt
      done)
    t.nshards;
  t.last <-
    {
      ri_groups = n;
      ri_staged = Array.mapi (fun i g -> (owner.(i), Option.get (Fg.group_stage g))) groups;
    }

(* Post-round telemetry: the per-shard rates feed for [fg top]. *)
let emit_round t =
  if Metrics.is_recording () then Metrics.incr ~n:t.last.ri_groups "shard.groups";
  if Trace.enabled () then
    Trace.point "fg.shard"
      ~attrs:
        (("shards", Event.Int t.nshards)
        :: ("round", Event.Int t.rounds)
        :: ("groups", Event.Int t.last.ri_groups)
        :: List.init t.nshards (fun s ->
               (Printf.sprintf "s%d.heals" s, Event.Int t.stats.(s).heals)))

let delete_round t victims =
  Fg.delete_round t.fg ~exec:(exec_round t) victims;
  emit_round t

let delete_round_traced t victims =
  let tr = Fg.delete_round_traced t.fg ~exec:(exec_round t) victims in
  emit_round t;
  tr

let delete_round_delta t victims =
  let r = Fg.delete_round_delta t.fg ~exec:(exec_round t) victims in
  emit_round t;
  r

let delete t v = delete_round t [ v ]

let insert t v neighbours =
  Shard_map.ensure t.map ((v : Node_id.t) + 1);
  Fg.insert t.fg v neighbours

let insert_delta t v neighbours =
  Shard_map.ensure t.map ((v : Node_id.t) + 1);
  Fg.insert_delta t.fg v neighbours
