(* The repository benchmark: one command, three workloads, end-to-end
   metrics with tracing off and per-layer metrics from a traced run.

     main.exe --workload pull_fleet|dissem_fanout|policy_churn --seed N
              --seconds S --trace 0|1 [--tiny]
              [--corrupt-reference] [--trace-out FILE]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}. Deterministic values
   (counts, simulated milliseconds, an op-sequence digest) go to standard
   error as one "deterministic {...}" line, which the self-test compares
   across runs. *)

open Common

let end_to_end =
  [ ("setup_s", "s"); ("top_heap_mb", "MB"); ("request_p50_ms", "ms"); ("request_p95_ms", "ms");
    ("requests_per_s", "1/s"); ("sim_link_ms_per_request", "ms"); ("publish_p50_ms", "ms");
    ("publish_p90_ms", "ms"); ("views_per_s", "1/s"); ("update_visible_p50_ms", "ms");
    ("update_visible_p90_ms", "ms"); ("revoke_visible_p50_ms", "ms"); ("ops_per_s", "1/s") ]

let per_layer =
  [ ("crypto.aes_blocks", "blocks/op"); ("crypto.aes_ms", "ms/op");
    ("crypto.merkle_proofs", "proofs/op"); ("crypto.merkle_ms", "ms/op");
    ("crypto.rsa_private_ops", "ops/op"); ("crypto.rsa_private_ms", "ms/op");
    ("crypto.rsa_verify_ops", "ops/op"); ("crypto.rsa_verify_ms", "ms/op");
    ("crypto.rsa_keygen_ms", "ms"); ("index.engine_ms", "ms/op");
    ("index.skipped_bytes_ratio", "ratio"); ("core.events", "events/op");
    ("core.token_visits", "visits/op"); ("core.minor_words_per_event", "words/event");
    ("core.compile_count", "compiles/op"); ("core.compile_ms", "ms/op");
    ("core.reassemble_ms", "ms/op"); ("xml.serialize_ms", "ms/op");
    ("dissem.evaluations", "evals/op"); ("dissem.fanout_ratio", "subs/eval");
    ("dissem.fanout_ms", "ms/op"); ("soe.card_busy_ms", "ms/op"); ("soe.apdu_frames", "frames/op");
    ("soe.apdu_bytes", "bytes/op"); ("soe.chunks_useful_ratio", "ratio");
    ("soe.prepared_hit_ratio", "ratio"); ("soe.rules_decrypt_ms", "ms/op"); ("soe.sim_ms", "ms/op");
    ("soe.sim_transfer_ms", "ms/op"); ("soe.sim_crypto_ms", "ms/op"); ("soe.sim_cpu_ms", "ms/op");
    ("proxy.self_ms", "ms/op"); ("fleet.affinity_hit_ratio", "ratio"); ("fleet.queue_peak", "count");
    ("pool.warm_setup_ratio", "ratio"); ("pool.retries", "count"); ("dsp.publish_ms", "ms");
    ("dsp.encrypt_rules_ms", "ms"); ("dsp.rotate_ms", "ms"); ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count"); ("trace.overhead_pct", "%"); ("unattributed_ms", "ms/op") ]

let workloads =
  [ ("pull_fleet", (Pull_fleet.run_e2e, Pull_fleet.run_traced));
    ("dissem_fanout", (Dissem_fanout.run_e2e, Dissem_fanout.run_traced));
    ("policy_churn", (Policy_churn.run_e2e, Policy_churn.run_traced)) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-reference] \
     [--trace-out FILE]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let tiny = ref false and corrupt = ref false and trace_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s when s > 0.0 -> seconds := s | _ -> usage ());
        parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--tiny" :: rest -> tiny := true; parse rest
    | "--corrupt-reference" :: rest -> corrupt := true; parse rest
    | "--trace-out" :: v :: rest -> trace_out := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> usage () in
  let run_e2e, run_traced =
    match List.assoc_opt !workload workloads with Some w -> w | None -> usage ()
  in
  let opts =
    { seed; seconds = !seconds; trace = !trace; tiny = !tiny; corrupt_reference = !corrupt }
  in
  (match if opts.trace then run_traced opts else run_e2e opts with
  | () -> ()
  | exception e ->
      Printf.eprintf "perfbench %s: %s\n" !workload (Printexc.to_string e);
      exit 1);
  if opts.trace && !trace_out <> "" then write_trace !trace_out;
  let wanted = if opts.trace then per_layer else end_to_end in
  let finite = ref true in
  let fields =
    List.map
      (fun (name, unit) ->
        let v =
          match Hashtbl.find_opt metrics name with
          | Some (v, u) when u = unit -> v
          | Some (_, u) -> failwith (Printf.sprintf "metric %s set in %s, declared %s" name u unit)
          | None -> failwith ("metric not measured: " ^ name)
        in
        let v = if Float.is_finite v then v else (finite := false; -1.0) in
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (Sdds_obs.Obs.json_string name) v
          (Sdds_obs.Obs.json_string unit))
      wanted
  in
  List.iter (fun n -> Printf.eprintf "failure: %s\n" n) (List.rev tally.notes);
  Printf.eprintf "deterministic {%s}\n"
    (String.concat ", "
       (List.rev_map
          (fun (k, v) -> Printf.sprintf "%s: %s" (Sdds_obs.Obs.json_string k) (Sdds_obs.Obs.json_string v))
          !deterministic));
  let correct = tally.failed = 0 && !finite && tally.attempted > 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 tally.attempted) tally.failed (String.concat ", " fields)
