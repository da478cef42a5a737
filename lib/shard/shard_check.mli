(** Paranoid audit of one sharded round.

    Runs the flat engine's O(Δ) transition check
    ({!Fg_core.Invariants.check_delta}) on the merged delta, then
    cross-checks the per-shard stage journals against it: total
    journalled vnode creations/discards must equal the delta's, and every
    journalled image operation must name nodes the engine has seen. Cheap enough to run after every round
    ([fg attack --shards K --paranoid]). *)

type violation = string

(** [check_round fg ~delta ~info] audits the round that produced
    [delta], where [info] is {!Shard_engine.last_round} captured
    immediately after it. [] = clean. *)
val check_round :
  Fg_core.Forgiving_graph.t ->
  delta:Fg_core.Delta.t ->
  info:Shard_engine.round_info ->
  violation list
