(* The per-layer attribution table of a traced run: host self time per
   operation for each layer the spans and the replay measure, the
   simulated card time beside it, and what remains unattributed. *)

open Common
module F = Fixture

let get name = match Hashtbl.find_opt metrics name with Some (v, _) -> v | None -> 0.0

(* The residual is a reconciliation, not a plug: layer rows that add up
   to more than the op wall by over this share of it fail the run. The
   rows and the wall are separate timings of the same work, so a
   residual this close to 0 either way is their measurement noise; a row
   counted twice exceeds it. *)
let tolerance = 0.05

(* [rows]: (layer, host ms per op, simulated card ms per op) that do not
   overlap; [wall_per_op] is the traced loop's wall time per operation.
   Sets the DSP, keygen and [unattributed_ms] metrics and prints the
   table; the simulated link transfer sits beside the unattributed row,
   which holds the APDU framing. *)
let finish ~workload ~ops ~wall_per_op ~rows =
  set "crypto.rsa_keygen_ms" "ms" (median !F.keygen_ms);
  set "dsp.publish_ms" "ms" (median !F.publish_ms);
  set "dsp.encrypt_rules_ms" "ms" (mean !F.encrypt_rules_ms);
  set "dsp.rotate_ms" "ms" (mean !F.rotate_ms);
  let attributed = List.fold_left (fun a (_, v, _) -> a +. v) 0.0 rows in
  let unattributed = wall_per_op -. attributed in
  set "unattributed_ms" "ms/op" unattributed;
  attempt (unattributed >= -.tolerance *. wall_per_op)
    (Printf.sprintf "reconcile %s: layer rows %.3f ms/op exceed the op wall %.3f ms/op" workload
       attributed wall_per_op);
  Printf.printf "per-layer attribution, %s (per operation)\n" workload;
  Printf.printf "  %-42s %10s %7s %10s\n" "layer" "host ms" "share" "sim ms";
  let line name v sim =
    Printf.printf "  %-42s %10.3f %6.1f%% %10s\n" name v (100.0 *. v /. wall_per_op)
      (match sim with Some x -> Printf.sprintf "%.3f" x | None -> "")
  in
  List.iter (fun (name, v, sim) -> line name v sim) rows;
  line "unattributed (APDU, protocol, scheduling, GC)" unattributed
    (Some (get "soe.sim_transfer_ms"));
  line "= op wall" wall_per_op (Some (get "soe.sim_ms"));
  Printf.printf
    "  counts/op: events %.1f  token visits %.1f  AES blocks %.1f  proofs %.1f  APDU frames %.1f\n"
    (get "core.events") (get "core.token_visits") (get "crypto.aes_blocks")
    (get "crypto.merkle_proofs") (get "soe.apdu_frames");
  Printf.printf "  minor words: %.2f per engine event, %.0f per op\n"
    (get "core.minor_words_per_event") (get "gc.minor_words_per_op");
  Printf.printf "  card busy %.3f ms/op, proxy self %.3f ms/op, trace overhead %.1f%%\n"
    (get "soe.card_busy_ms") (get "proxy.self_ms") (get "trace.overhead_pct");
  Printf.printf "  bench-side spans, self ms per op:";
  List.iter (fun (name, v) -> Printf.printf "  %s %.3f" name v) (span_self_per_op ops);
  Printf.printf "\n%!"
