(* Paranoid audit of one sharded round: the merged delta must pass the
   flat engine's O(Δ) transition check, and the per-shard stage journals
   must conserve vnode counts against it — what the shards journalled is
   exactly what the commit reported. Per-stage refcount ops are below
   delta granularity (a net-zero edge never surfaces), so the edge-level
   checks live on the merged stream only. *)

module Fg = Fg_core.Forgiving_graph
module Rt = Fg_core.Rt
module Delta = Fg_core.Delta
module Invariants = Fg_core.Invariants

type violation = string

let check_round fg ~delta ~(info : Shard_engine.round_info) =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  List.iter (fun v -> err "merged delta: %s" v) (Invariants.check_delta fg delta);
  (* conservation: sum of journalled vnode churn = merged delta's *)
  let created = ref 0 and discarded = ref 0 in
  Array.iter
    (fun (_, st) ->
      let c, d, _ = Rt.stage_stats st in
      created := !created + c;
      discarded := !discarded + d)
    info.ri_staged;
  if !created <> delta.Delta.vnodes_created then
    err "stages journalled %d created vnodes, delta reports %d" !created
      delta.Delta.vnodes_created;
  if !discarded <> delta.Delta.vnodes_discarded then
    err "stages journalled %d discarded vnodes, delta reports %d" !discarded
      delta.Delta.vnodes_discarded;
  (* every journalled image op names a node the engine has seen *)
  let seen = Fg.num_seen fg in
  Array.iteri
    (fun i (shard, st) ->
      List.iter
        (fun (u, v, _) ->
          if u < 0 || u >= seen || v < 0 || v >= seen then
            err "stage %d (shard %d): image op on unknown node (%d, %d)" i shard u v)
        (Rt.stage_ops st))
    info.ri_staged;
  List.rev !errs
