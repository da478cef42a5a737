(** The sharded heal engine: node-id space partitioned block-cyclically
    across K shards ({!Shard_map}), one staging slice per shard, and the
    flat engine's staged round machinery underneath
    ({!Fg_core.Forgiving_graph.delete_round}).

    Each round routes every planned repair group to the shard owning its
    smallest victim; shard [s] journals its slice of groups on a private
    executor, one worker domain per shard. The owner-ordered commit then
    replays every journal in canonical group order, so the final graph,
    G' image and delta stream are {e byte-identical} to the flat engine
    for any shard count.

    With one shard, with {!set_serial_only}, or when tracing, metrics
    recording or profiling is live (the observability sinks are
    single-domain), the same staging loop runs on the coordinator; the
    result is the same either way. The engine always runs the paper's
    representative policy ([Rt.Paper]). *)

type t

(** Per-shard load counters, updated every round. *)
type shard_stat = {
  mutable heals : int;  (** repair groups healed by this shard *)
  mutable local_groups : int;
      (** groups whose victims and fresh-leaf processors were all
          home-owned *)
  mutable cross_groups : int;
  mutable heal_ns : int;  (** cumulative heal wall time *)
}

(** What the last round did — the audit surface for
    {!Shard_check.check_round}. *)
type round_info = {
  ri_groups : int;
  ri_staged : (int * Fg_core.Rt.stage) array;
      (** (shard, journal) per repair group, canonical commit order *)
}

(** The widest partition {!create} accepts: 1024, the executor slot
    limit of {!Fg_core.Rt.executor}. *)
val max_shards : int

(** [create ?shards ?block g] builds the engine over initial graph [g].
    [shards] (default 1) fixes the partition width; [block] the
    ownership block size ({!Shard_map}). Raises [Invalid_argument] unless
    [1 <= shards <= max_shards]. *)
val create : ?shards:int -> ?block:int -> Fg_graph.Adjacency.t -> t

(** The underlying flat engine — all read accessors ([graph], [gprime],
    [csr], [is_alive], ...) apply to it directly. *)
val fg : t -> Fg_core.Forgiving_graph.t

val shards : t -> int

(** {1 Events}

    Inserts are coordinator-side passthroughs (they only touch the
    node's own adjacency row); deletes run the sharded round. *)

val insert : t -> Fg_graph.Node_id.t -> Fg_graph.Node_id.t list -> unit
val insert_delta : t -> Fg_graph.Node_id.t -> Fg_graph.Node_id.t list -> Fg_core.Delta.t

(** [delete_round t victims] deletes a batch of victims as one sharded
    round (assignment, per-shard staging, canonical commit). *)
val delete_round : t -> Fg_graph.Node_id.t list -> unit

val delete_round_traced : t -> Fg_graph.Node_id.t list -> Fg_core.Rt.heal_trace list
val delete_round_delta : t -> Fg_graph.Node_id.t list -> Fg_core.Delta.t * Fg_core.Rt.heal_trace list

(** [delete t v] is [delete_round t [v]]. *)
val delete : t -> Fg_graph.Node_id.t -> unit

(** [set_serial_only t true] pins every round to the coordinator (same
    result, no worker domains) — required when the {!Fg_graph.Parallel}
    pool is owned by someone else, e.g. serve-bench reader tasks. *)
val set_serial_only : t -> bool -> unit

(** {1 Introspection} *)

val stats : t -> shard_stat array
val rounds : t -> int
val last_round : t -> round_info
