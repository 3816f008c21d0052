(* Replay of the card's and the terminal's public layer functions on the
   captured inputs of sampled operations, plus a twin card that supplies
   the report counts and the simulated cost breakdown. The traced runs
   replay each sampled operation right after it, outside the loop's wall
   time.

   The timed loop cannot see inside [Card.evaluate] or [Client.deliver];
   replaying [Wire.decrypt_chunk], [Merkle.verify], [Wire.decrypt_rules],
   [Compile.compile], [Indexed_engine.run], [Fanout.run],
   [Reassembler.run] and [Serializer.to_string] on the same inputs gives
   each layer's host time and allocation for that operation. *)

open Common
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Wire = Sdds_soe.Wire
module Merkle = Sdds_crypto.Merkle
module Rsa = Sdds_crypto.Rsa
module Publish = Sdds_dsp.Publish
module Rule = Sdds_core.Rule
module Compile = Sdds_core.Compile
module Reassembler = Sdds_core.Reassembler
module Serializer = Sdds_xml.Serializer
module Indexed_engine = Sdds_index.Indexed_engine
module Fanout = Sdds_dissem.Fanout

(* Per-operation layer figures; times in ms, counts per operation. *)
type t = {
  mutable n : int;  (* operations replayed *)
  mutable aes_ms : float;
  mutable aes_blocks : int;
  mutable merkle_ms : float;
  mutable merkle_proofs : int;
  mutable rsa_verify_ops : int;
  mutable rules_decrypts : int;
  mutable rules_ms : float;  (* Wire.decrypt_rules, blob signature included *)
  mutable compiles : int;
  mutable compile_ms : float;
  mutable engine_ms : float;  (* Indexed_engine.run, or the dissem decode *)
  mutable engine_words : float;  (* minor words allocated by the engine *)
  mutable events : int;
  mutable token_visits : int;
  mutable fanout_ms : float;
  mutable evaluations : int;
  mutable fanout_subscribers : int;
  mutable reassemble_ms : float;
  mutable serialize_ms : float;
  mutable skipped_bytes : int;
  mutable plain_bytes : int;
  mutable chunks_consumed : int;
  mutable chunks_decrypted : int;
  mutable sim_ms : float;
  mutable sim_transfer_ms : float;
  mutable sim_crypto_ms : float;
  mutable sim_cpu_ms : float;
  mutable sim_rsa_ms : float;
  mutable sim_compile_ms : float;
}

let create () =
  {
    n = 0; aes_ms = 0.0; aes_blocks = 0; merkle_ms = 0.0; merkle_proofs = 0;
    rsa_verify_ops = 0; rules_decrypts = 0; rules_ms = 0.0; compiles = 0;
    compile_ms = 0.0; engine_ms = 0.0; engine_words = 0.0; events = 0;
    token_visits = 0; fanout_ms = 0.0; evaluations = 0;
    fanout_subscribers = 0; reassemble_ms = 0.0; serialize_ms = 0.0;
    skipped_bytes = 0; plain_bytes = 0; chunks_consumed = 0;
    chunks_decrypted = 0; sim_ms = 0.0; sim_transfer_ms = 0.0;
    sim_crypto_ms = 0.0; sim_cpu_ms = 0.0; sim_rsa_ms = 0.0; sim_compile_ms = 0.0;
  }

let add_breakdown r (b : Cost.breakdown) =
  r.sim_ms <- r.sim_ms +. b.Cost.total_ms;
  r.sim_transfer_ms <- r.sim_transfer_ms +. b.Cost.transfer_ms;
  r.sim_crypto_ms <- r.sim_crypto_ms +. b.Cost.crypto_ms;
  r.sim_cpu_ms <- r.sim_cpu_ms +. b.Cost.cpu_ms;
  r.sim_rsa_ms <- r.sim_rsa_ms +. b.Cost.rsa_ms;
  r.sim_compile_ms <- r.sim_compile_ms +. b.Cost.compile_ms

(* One RSA verification of a document's root signature and one private
   (signing) operation on the publisher key, timed; the per-op RSA
   figures multiply these unit costs. *)
let rsa_costs (kp : Rsa.keypair) (p : Publish.published) =
  let msg =
    Wire.signed_root_message ~doc_id:p.Publish.doc_id ~merkle_root:p.Publish.merkle_root
      ~plain_length:p.Publish.plain_length
  in
  let verify_ms =
    replay_ms ~reps:5 (fun () ->
        if not (Rsa.verify p.Publish.publisher msg ~signature:p.Publish.root_signature) then
          failwith "replay: root signature does not verify")
  in
  let sign_ms = replay_ms ~reps:3 (fun () -> ignore (Rsa.sign kp.Rsa.secret msg)) in
  (verify_ms, sign_ms)

let decrypt_all (p : Publish.published) ~key =
  let plain = ref [] in
  let ms =
    replay_ms (fun () ->
        plain :=
          Array.to_list
            (Array.mapi
               (fun i c ->
                 match Wire.decrypt_chunk ~key ~doc_id:p.Publish.doc_id ~index:i c with
                 | Some s -> s
                 | None -> failwith "replay: chunk does not decrypt")
               p.Publish.chunks))
  in
  let blocks =
    Array.fold_left (fun a c -> a + (String.length c / 16)) 0 p.Publish.chunks
  in
  (String.concat "" !plain, ms, blocks)

let verify_chunks (p : Publish.published) mask =
  let proofs = Array.mapi (fun i _ -> Merkle.prove p.Publish.tree i) p.Publish.chunks in
  let n = Array.fold_left (fun a b -> if b then a + 1 else a) 0 mask in
  let leaf_count = Merkle.leaf_count p.Publish.tree in
  let ms =
    replay_ms (fun () ->
        Array.iteri
          (fun i used ->
            if used then
              if
                not
                  (Merkle.verify ~root:p.Publish.merkle_root ~leaf_count ~index:i
                     ~leaf:p.Publish.chunks.(i) proofs.(i))
              then failwith "replay: proof does not verify")
          mask)
  in
  (ms, n)

(* A pull (or a direct read): the card decrypts every chunk, verifies the
   consumed ones, decrypts and compiles the rule blob on a prepared-cache
   miss, runs the engine, and the terminal reassembles and serializes.
   [twin] is a card holding the document key in the same cache state the
   real card had for this operation: [cold] (a prepared-cache miss) needs
   a twin whose cache is disabled. *)
let pull r ~twin ~cold ~subject (p : Publish.published) ~key ~blob ~query =
  let query_ast = Option.map Sdds_xpath.Parser.parse query in
  let source = Publish.to_source p ~delivery:`Pull in
  let eval () =
    match Card.evaluate twin source ~encrypted_rules:blob ?query:query_ast () with
    | Ok (_, rep) -> rep
    | Error e -> failwith (Format.asprintf "twin card: %a" Card.pp_error e)
  in
  (* a warm operation is replayed on a primed twin *)
  if not cold then ignore (eval ());
  let report = eval () in
  let encoded, aes_ms, blocks = decrypt_all p ~key in
  r.aes_ms <- r.aes_ms +. aes_ms;
  r.aes_blocks <- r.aes_blocks + blocks;
  let merkle_ms, proofs = verify_chunks p report.Card.consumed_mask in
  r.merkle_ms <- r.merkle_ms +. merkle_ms;
  r.merkle_proofs <- r.merkle_proofs + proofs;
  let rules =
    match
      Wire.decrypt_rules ~key ~doc_id:p.Publish.doc_id ~subject
        ~publisher:p.Publish.publisher blob
    with
    | Ok (_, rules) -> Rule.for_subject subject rules
    | Error msg -> failwith ("replay: rule blob: " ^ msg)
  in
  let compiled = Compile.compile ?query:query_ast rules in
  if cold then begin
    r.rules_decrypts <- r.rules_decrypts + 1;
    r.rsa_verify_ops <- r.rsa_verify_ops + 2 (* root + blob signatures *);
    r.rules_ms <-
      r.rules_ms
      +. replay_ms (fun () ->
             ignore
               (Wire.decrypt_rules ~key ~doc_id:p.Publish.doc_id ~subject
                  ~publisher:p.Publish.publisher blob));
    r.compiles <- r.compiles + 1;
    r.compile_ms <-
      r.compile_ms +. replay_ms (fun () -> ignore (Compile.compile ?query:query_ast rules))
  end;
  let res = ref None in
  let words = ref 0.0 in
  r.engine_ms <-
    r.engine_ms
    +. replay_ms (fun () ->
           let m = gc_mark () in
           res := Some (Indexed_engine.run ?query:query_ast ~compiled rules encoded);
           words := fst (gc_since m));
  let res = Option.get !res in
  r.engine_words <- r.engine_words +. !words;
  r.events <- r.events + res.Indexed_engine.events_fed;
  r.token_visits <- r.token_visits + res.Indexed_engine.engine_stats.Sdds_core.Engine.token_visits;
  let view = ref None in
  r.reassemble_ms <-
    r.reassemble_ms
    +. replay_ms (fun () ->
           view := Reassembler.run ~has_query:(query <> None) res.Indexed_engine.outputs);
  r.serialize_ms <-
    r.serialize_ms
    +. replay_ms (fun () -> ignore (Option.map (Serializer.to_string ~indent:true) !view));
  r.skipped_bytes <- r.skipped_bytes + report.Card.skipped_bytes;
  r.plain_bytes <- r.plain_bytes + p.Publish.plain_length;
  r.chunks_consumed <- r.chunks_consumed + report.Card.chunks_consumed;
  r.chunks_decrypted <- r.chunks_decrypted + report.Card.chunks_total;
  add_breakdown r report.Card.breakdown;
  r.n <- r.n + 1;
  report

(* A dissemination publish: one decryption and proof pass, one rule-blob
   decrypt per subscriber, one decode, the clustered fan-out, then one
   reassembly and serialization per subscriber view. *)
let publish r ~twin (p : Publish.published) ~key ~subscribers =
  let source = Publish.to_source p ~delivery:`Push in
  let results, report =
    match Card.disseminate twin source ~subscribers () with
    | Ok x -> x
    | Error e -> failwith (Format.asprintf "twin gateway: %a" Card.pp_error e)
  in
  let encoded, aes_ms, blocks = decrypt_all p ~key in
  r.aes_ms <- r.aes_ms +. aes_ms;
  r.aes_blocks <- r.aes_blocks + blocks;
  let all = Array.make (Array.length p.Publish.chunks) true in
  let merkle_ms, proofs = verify_chunks p all in
  r.merkle_ms <- r.merkle_ms +. merkle_ms;
  r.merkle_proofs <- r.merkle_proofs + proofs;
  let decrypt_blobs () =
    List.map
      (fun (subject, blob) ->
        match
          Wire.decrypt_rules ~key ~doc_id:p.Publish.doc_id ~subject
            ~publisher:p.Publish.publisher blob
        with
        | Ok (_, rules) -> (subject, Rule.for_subject subject rules)
        | Error msg -> failwith ("replay: rule blob: " ^ msg))
      subscribers
  in
  let population = decrypt_blobs () in
  r.rules_ms <- r.rules_ms +. replay_ms (fun () -> ignore (decrypt_blobs ()));
  r.rules_decrypts <- r.rules_decrypts + List.length subscribers;
  r.rsa_verify_ops <- r.rsa_verify_ops + 1 + List.length subscribers;
  let events = ref [] in
  r.engine_ms <- r.engine_ms +. replay_ms (fun () -> events := Sdds_index.Reader.to_events encoded);
  let delivered = ref [] and stats = ref None and words = ref 0.0 in
  r.fanout_ms <-
    r.fanout_ms
    +. replay_ms (fun () ->
           let m = gc_mark () in
           (match Fanout.run population !events with
           | Ok (d, s) ->
               delivered := d;
               stats := Some s
           | Error _ -> failwith "replay: cluster planning refused");
           words := fst (gc_since m));
  let stats = Option.get !stats in
  let sharing = report.Card.sharing in
  r.evaluations <- r.evaluations + stats.Fanout.evaluations;
  r.fanout_subscribers <- r.fanout_subscribers + stats.Fanout.subscribers;
  r.compiles <- r.compiles + sharing.Fanout.clusters;
  let n_events = List.length !events in
  r.events <- r.events + (n_events * stats.Fanout.evaluations);
  r.engine_words <- r.engine_words +. !words;
  r.token_visits <- r.token_visits + stats.Fanout.mux_token_visits;
  List.iter
    (fun (_, outs) ->
      let view = ref None in
      r.reassemble_ms <-
        r.reassemble_ms +. replay_ms ~reps:1 (fun () -> view := Reassembler.run ~has_query:false outs);
      r.serialize_ms <-
        r.serialize_ms
        +. replay_ms ~reps:1 (fun () ->
               ignore (Option.map (Serializer.to_string ~indent:true) !view)))
    !delivered;
  r.plain_bytes <- r.plain_bytes + p.Publish.plain_length;
  r.chunks_consumed <- r.chunks_consumed + Array.length p.Publish.chunks;
  r.chunks_decrypted <- r.chunks_decrypted + Array.length p.Publish.chunks;
  add_breakdown r report.Card.dissem_breakdown;
  r.n <- r.n + 1;
  (results, report, stats)

(* Emit the per-layer metrics a replay measures, per operation of the
   workload: [ops_per_replay] scales figures of one replayed unit (a read
   inside a churn mix, say) to one workload operation. *)
let emit r ~verify_ms ~ops_per_replay =
  let k = if r.n = 0 then 0.0 else ops_per_replay /. float_of_int r.n in
  let f x = x *. k and i x = float_of_int x *. k in
  set "crypto.aes_blocks" "blocks/op" (i r.aes_blocks);
  set "crypto.aes_ms" "ms/op" (f r.aes_ms);
  set "crypto.merkle_proofs" "proofs/op" (i r.merkle_proofs);
  set "crypto.merkle_ms" "ms/op" (f r.merkle_ms);
  set "crypto.rsa_verify_ops" "ops/op" (i r.rsa_verify_ops);
  set "crypto.rsa_verify_ms" "ms/op" (i r.rsa_verify_ops *. verify_ms);
  set "index.engine_ms" "ms/op" (f r.engine_ms);
  set "index.skipped_bytes_ratio" "ratio" (ratio r.skipped_bytes r.plain_bytes);
  set "core.events" "events/op" (i r.events);
  set "core.token_visits" "visits/op" (i r.token_visits);
  set "core.minor_words_per_event" "words/event"
    (if r.events = 0 then 0.0 else r.engine_words /. float_of_int r.events);
  set "core.compile_count" "compiles/op" (i r.compiles);
  set "core.compile_ms" "ms/op" (f r.compile_ms);
  set "core.reassemble_ms" "ms/op" (f r.reassemble_ms);
  set "xml.serialize_ms" "ms/op" (f r.serialize_ms);
  set "dissem.fanout_ms" "ms/op" (f r.fanout_ms);
  set "dissem.evaluations" "evals/op" (i r.evaluations);
  set "dissem.fanout_ratio" "subs/eval" (ratio r.fanout_subscribers r.evaluations);
  set "soe.chunks_useful_ratio" "ratio" (ratio r.chunks_consumed r.chunks_decrypted);
  set "soe.rules_decrypt_ms" "ms/op" (f r.rules_ms);
  set "soe.sim_ms" "ms/op" (f r.sim_ms);
  set "soe.sim_transfer_ms" "ms/op" (f r.sim_transfer_ms);
  set "soe.sim_crypto_ms" "ms/op" (f r.sim_crypto_ms);
  set "soe.sim_cpu_ms" "ms/op" (f r.sim_cpu_ms);
  List.iter
    (fun (name, v) -> det_f name v)
    [ ("crypto.aes_blocks", i r.aes_blocks); ("crypto.merkle_proofs", i r.merkle_proofs);
      ("core.events", i r.events); ("core.token_visits", i r.token_visits);
      ("core.minor_words_per_event",
       if r.events = 0 then 0.0 else r.engine_words /. float_of_int r.events);
      ("soe.sim_ms", f r.sim_ms); ("soe.sim_transfer_ms", f r.sim_transfer_ms);
      ("soe.sim_crypto_ms", f r.sim_crypto_ms); ("soe.sim_cpu_ms", f r.sim_cpu_ms) ]

(* Self-time rows the replay explains, ms per workload operation, each
   with the simulated card ms of the same work where the cost model
   charges it separately. The blob-signature check stays inside the rule
   decrypt row; the RSA row holds the root-signature checks, so no time
   is counted twice. *)
let rows r ~verify_ms ~ops_per_replay =
  let k = if r.n = 0 then 0.0 else ops_per_replay /. float_of_int r.n in
  let root_verifies = float_of_int (r.rsa_verify_ops - r.rules_decrypts) in
  [ ("crypto.aes+merkle (chunk decrypt, proofs)", (r.aes_ms +. r.merkle_ms) *. k, Some (r.sim_crypto_ms *. k));
    ("crypto.rsa_verify (root signature)", root_verifies *. verify_ms *. k, Some (r.sim_rsa_ms *. k));
    ("soe.rules_decrypt (MAC, signature, parse)", r.rules_ms *. k, None);
    ("core.compile", r.compile_ms *. k, Some (r.sim_compile_ms *. k));
    ("index.engine", r.engine_ms *. k, Some (r.sim_cpu_ms *. k));
    ("dissem.fanout", r.fanout_ms *. k, None);
    ("core.reassemble", r.reassemble_ms *. k, None);
    ("xml.serialize", r.serialize_ms *. k, None) ]

(* Twin-card reconciliation: with [?obs] on, the engine's registry cells
   must move by exactly the counts the card's report states. *)
let reconcile_engine ~(obs : Sdds_obs.Obs.t) ~twin source ~blob ~query =
  let reg = obs.Sdds_obs.Obs.metrics in
  let value name = Sdds_obs.Obs.Metrics.counter_value reg name in
  let tv0 = value "engine.token_visits" and ev0 = value "engine.events" in
  match
    Card.evaluate twin source ~encrypted_rules:blob
      ?query:(Option.map Sdds_xpath.Parser.parse query) ()
  with
  | Error e -> fail ("twin reconciliation: " ^ Format.asprintf "%a" Card.pp_error e)
  | Ok (_, rep) ->
      reconcile "twin token_visits = engine.token_visits" rep.Card.token_visits
        (value "engine.token_visits" - tv0);
      reconcile "twin events = engine.events" rep.Card.events (value "engine.events" - ev0)
