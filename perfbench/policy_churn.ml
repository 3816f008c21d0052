(* policy_churn — writes beside reads: one client in a closed loop over
   4 subjects, each on its own direct card, reading a few ~30 KB
   documents while the owner updates rules (a version bump, no document
   re-encryption) and revokes subjects by key rotation. *)

open Common
module F = Fixture
module Rng = Sdds_util.Rng
module Store = Sdds_dsp.Store
module Publish = Sdds_dsp.Publish
module Rule = Sdds_core.Rule
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Proxy = Sdds_proxy.Proxy
module Client = Sdds_proxy.Client
module Generator = Sdds_xml.Generator

let queries = [| None; Some "//patient" |]
let n_variants = 4

let variant_rules k s =
  match k mod n_variants with
  | 0 -> [ Rule.allow ~subject:s "//patient"; Rule.deny ~subject:s "//ssn" ]
  | 1 -> [ Rule.allow ~subject:s "//admission" ]
  | 2 -> [ Rule.allow ~subject:s "//patient"; Rule.deny ~subject:s "//diagnosis" ]
  | _ -> [ Rule.allow ~subject:s "//patient/name"; Rule.allow ~subject:s "//prescription" ]

type doc = {
  id : string;
  dom : Sdds_xml.Dom.t;
  mutable published : Publish.published;
  mutable key : string;
}

type subj = {
  name : string;
  kp : Sdds_crypto.Rsa.keypair;
  card : Card.t;
  client : Client.t;
}

type fx = {
  store : Store.t;
  docs : doc array;
  subs : subj array;
  variant : int array array;  (* subject, doc *)
  version : int array array;
  revoked : bool array array;
  unwrap_pending : bool array array;  (* the card will unwrap a new grant *)
  publisher : Sdds_crypto.Rsa.keypair;
  drbg : Sdds_crypto.Drbg.t;
  oracle : (int * int * int, string option) Hashtbl.t;  (* doc, variant, query *)
}

let reference fx ~corrupt d v q =
  match Hashtbl.find_opt fx.oracle (d, v, q) with
  | Some x -> x
  | None ->
      let x = F.oracle_xml ?query:queries.(q) ~rules:(variant_rules v "x") fx.docs.(d).dom in
      let x = if corrupt && Hashtbl.length fx.oracle = 0 then F.corrupt x else x in
      Hashtbl.replace fx.oracle (d, v, q) x;
      x

let put_rules fx s d =
  let doc = fx.docs.(d) and sj = fx.subs.(s) in
  let blob =
    F.encrypt_rules fx.drbg ~publisher:fx.publisher ~doc_key:doc.key ~doc_id:doc.id
      ~subject:sj.name ~version:fx.version.(s).(d) (variant_rules fx.variant.(s).(d) sj.name)
  in
  span "dsp.put_rules" (fun () -> Store.put_rules fx.store ~doc_id:doc.id ~subject:sj.name blob)

let put_grant fx s d =
  let doc = fx.docs.(d) and sj = fx.subs.(s) in
  Store.put_grant fx.store ~doc_id:doc.id ~subject:sj.name
    (F.grant fx.drbg ~doc_key:doc.key ~doc_id:doc.id ~recipient:sj.kp.Sdds_crypto.Rsa.public);
  fx.unwrap_pending.(s).(d) <- true

let build opts () =
  let seed = opts.seed in
  let rng = Rng.create (Int64.of_int seed) in
  let drbg = F.drbg_for ~seed "churn" in
  let publisher = F.keygen drbg in
  let store = Store.create () in
  let n_docs = if opts.tiny then 2 else 3 and n_subs = if opts.tiny then 2 else 4 in
  let subs =
    Array.init n_subs (fun i ->
        let name = Printf.sprintf "s%d" i in
        let kp = F.keygen drbg in
        let card = Card.create ~profile:Cost.fleet ~subject:name kp in
        { name; kp; card; client = Client.direct ~store ~card })
  in
  let docs =
    Array.init n_docs (fun k ->
        let id = Printf.sprintf "doc%d" k in
        let dom = Generator.hospital (Rng.split rng) ~patients:(if opts.tiny then 4 else 40) in
        let published, key = F.publish drbg ~publisher ~doc_id:id dom in
        Store.put_document store published;
        { id; dom; published; key })
  in
  let grid v = Array.init n_subs (fun s -> Array.init n_docs (fun d -> v s d)) in
  let fx =
    {
      store; docs; subs; variant = grid (fun s d -> (s + d) mod n_variants);
      version = grid (fun _ _ -> 0); revoked = grid (fun _ _ -> false);
      unwrap_pending = grid (fun _ _ -> false); publisher; drbg; oracle = Hashtbl.create 32;
    }
  in
  Array.iteri
    (fun s _ ->
      Array.iteri
        (fun d _ ->
          put_rules fx s d;
          put_grant fx s d)
        docs)
    subs;
  (* warm-up: every subject reads every document once *)
  Array.iteri
    (fun s sj ->
      Array.iteri
        (fun d doc ->
          fx.unwrap_pending.(s).(d) <- false;
          match Client.query sj.client doc.id with
          | Ok _ -> ()
          | Error e -> failwith (Format.asprintf "churn warm-up: %a" Proxy.pp_error e))
        docs)
    subs;
  fx

type window = {
  mutable ops : int;
  mutable reads : int;
  mutable views : int;
  mutable read_lat : float list;
  mutable update_lat : float list;
  mutable revoke_lat : float list;
  mutable publish_lat : float list;
  mutable wall_s : float;
  mutable unwraps : int;
  mutable signs : int;
  mutable prefix_bytes : int;
  mutable prefix_frames : int;
  mutable prefix_reads : int;
  mutable hits : int;
  mutable samples : (int * int * int * bool * string * string * Publish.published) list;
      (* subject, doc, query, cold, blob, key, published *)
  mutable digest : int;
}

let prefix_ops opts = if opts.tiny then 10 else 40

(* [on_sample] runs on each sampled read of the prefix, outside the
   loop's wall time. *)
let loop ?(on_sample = fun _ -> ()) opts fx ~seconds ~corrupt =
  let w =
    {
      ops = 0; reads = 0; views = 0; read_lat = []; update_lat = []; revoke_lat = [];
      publish_lat = []; wall_s = 0.0; unwraps = 0; signs = 0; prefix_bytes = 0;
      prefix_frames = 0; prefix_reads = 0; hits = 0; samples = []; digest = 0;
    }
  in
  let k = prefix_ops opts in
  let rng = Rng.create (Int64.of_int ((opts.seed * 7919) + 29)) in
  let n_s = Array.length fx.subs and n_d = Array.length fx.docs in
  let signs0 = !F.rsa_signs in
  (* 75% reads, 20% rule updates, 5% revocations, exactly per 20 ops *)
  let mix = F.deck (Rng.split rng) ~size:20 [ (`Read, 75.0); (`Update, 20.0); (`Revoke, 5.0) ] in
  let pick_admitted () =
    let rec go () =
      let s = Rng.int rng n_s and d = Rng.int rng n_d in
      if fx.revoked.(s).(d) then go () else (s, d)
    in
    go ()
  in
  (* One read; [lat] receives its latency. Returns whether it succeeded. *)
  let read ~lat s d q =
    let sj = fx.subs.(s) and doc = fx.docs.(d) in
    if fx.unwrap_pending.(s).(d) then begin
      w.unwraps <- w.unwraps + 1;
      fx.unwrap_pending.(s).(d) <- false
    end;
    let t0 = now () in
    let r = span "client.query" (fun () -> Client.query sj.client ?xpath:queries.(q) doc.id) in
    let ms = ms_since t0 in
    w.reads <- w.reads + 1;
    match r with
    | Ok sv ->
        lat := ms :: !lat;
        w.views <- w.views + 1;
        if sv.Proxy.Pool.warm_setup then w.hits <- w.hits + 1;
        if w.ops < k then begin
          w.prefix_reads <- w.prefix_reads + 1;
          w.prefix_bytes <- w.prefix_bytes + sv.Proxy.Pool.wire_bytes;
          w.prefix_frames <-
            w.prefix_frames + sv.Proxy.Pool.command_frames + sv.Proxy.Pool.response_frames;
          if List.length w.samples < 10 then begin
            let sample =
              ( s, d, q, not sv.Proxy.Pool.warm_setup,
                Option.get (Store.get_rules fx.store ~doc_id:doc.id ~subject:sj.name),
                doc.key, doc.published )
            in
            w.samples <- sample :: w.samples;
            checked (fun () -> on_sample sample)
          end
        end;
        checked (fun () ->
            attempt
              (F.xml_equal sv.Proxy.Pool.xml (reference fx ~corrupt d fx.variant.(s).(d) q))
              (Printf.sprintf "read %s %s q%d: view differs from the oracle" sj.name doc.id q));
        true
    | Error e ->
        lat := Float.infinity :: !lat;
        attempt false (Format.asprintf "read %s %s: %a" sj.name doc.id Proxy.pp_error e);
        false
  in
  let reads = ref [] in
  let prev_revoked = ref None in
  excluded_s := 0.0;
  let t_start = now () in
  let deadline = t_start +. seconds in
  (* whole decks of 20 operations, so every run has the exact mix *)
  while w.ops < k || now () < deadline || w.ops mod 20 <> 0 do
    let op = F.deal mix in
    if w.ops < k then w.digest <- Hashtbl.hash (w.digest, op);
    (match op with
     | `Read -> begin
       let s, d = pick_admitted () in
       ignore (read ~lat:reads s d (Rng.int rng (Array.length queries)))
     end
     | `Update -> begin
       (* rule update: version bump, then the subject's read shows it *)
       let s, d = pick_admitted () in
       let t0 = now () in
       fx.variant.(s).(d) <- (fx.variant.(s).(d) + 1) mod n_variants;
       fx.version.(s).(d) <- fx.version.(s).(d) + 1;
       let tp = now () in
       span "op.update" (fun () -> put_rules fx s d);
       w.publish_lat <- ms_since tp :: w.publish_lat;
       let ok = read ~lat:(ref []) s d 0 in
       w.update_lat <- (if ok then ms_since t0 else Float.infinity) :: w.update_lat
     end
     | `Revoke -> begin
       (* revocation: the previously revoked subject is re-admitted (and
          reads again), then the document is rotated and the survivors
          get fresh rule blobs and grants; the victim's blob and grant
          stay as they were, and its next read must be refused. Every
          survivor then reads once more, so key refreshes are paid
          inside the revocation, not by whichever later operation
          happens to come first. *)
       (match !prev_revoked with
       | Some (s, d) ->
           fx.revoked.(s).(d) <- false;
           fx.version.(s).(d) <- fx.version.(s).(d) + 1;
           put_grant fx s d;
           put_rules fx s d;
           ignore (read ~lat:(ref []) s d 0)
       | None -> ());
       let victim, d = pick_admitted () in
       let doc = fx.docs.(d) in
       let t0 = now () in
       let published, key = F.rotate fx.drbg ~publisher:fx.publisher ~old_key:doc.key doc.published in
       doc.published <- published;
       doc.key <- key;
       Store.put_document fx.store published;
       Array.iteri
         (fun s _ ->
           if s <> victim && not fx.revoked.(s).(d) then begin
             fx.version.(s).(d) <- fx.version.(s).(d) + 1;
             put_grant fx s d;
             put_rules fx s d
           end)
         fx.subs;
       fx.revoked.(victim).(d) <- true;
       let sj = fx.subs.(victim) in
       (* the victim's card still holds the old key; its proxy re-fetches
          the (old) grant once, which unwraps again *)
       w.unwraps <- w.unwraps + 1;
       let r = span "client.query" (fun () -> Client.query sj.client doc.id) in
       let ms = ms_since t0 in
       (match r with
       | Error (Proxy.Card_error _) ->
           w.revoke_lat <- ms :: w.revoke_lat;
           attempt true ""
       | Error e ->
           w.revoke_lat <- Float.infinity :: w.revoke_lat;
           attempt false (Format.asprintf "revoke: untyped refusal %a" Proxy.pp_error e)
       | Ok _ ->
           w.revoke_lat <- Float.infinity :: w.revoke_lat;
           attempt false "revoke: a revoked subject received a view");
       Array.iteri
         (fun s _ -> if not fx.revoked.(s).(d) then ignore (read ~lat:(ref []) s d 0))
         fx.subs;
       prev_revoked := Some (victim, d)
     end);
    w.ops <- w.ops + 1
  done;
  w.wall_s <- now () -. t_start -. !excluded_s;
  w.read_lat <- !reads;
  w.signs <- !F.rsa_signs - signs0;
  w

let sim_link_ms w =
  per_op (float_of_int w.prefix_bytes *. 1000.0 /. Cost.fleet.Cost.link_bytes_per_s) w.prefix_reads

(* The update and revocation samples come from inside the loop, not from
   separate probes, so the loop runs three times [seconds]: at ~5%
   revocations that yields about five of them. *)
let run_e2e opts =
  let fx, setup_s = repeat_setup (setup_reps opts) (build opts) in
  let w = loop opts fx ~seconds:(3.0 *. opts.seconds) ~corrupt:opts.corrupt_reference in
  det_f "sim_link_ms_per_request" (sim_link_ms w);
  det_i "prefix.apdu_frames" w.prefix_frames;
  det_i "prefix.wire_bytes" w.prefix_bytes;
  det "op_digest" (string_of_int w.digest);
  set "setup_s" "s" setup_s;
  set "request_p50_ms" "ms" (median w.read_lat);
  set "request_p95_ms" "ms" (percentile w.read_lat 0.95);
  set "requests_per_s" "1/s" (float_of_int w.reads /. w.wall_s);
  set "views_per_s" "1/s" (float_of_int w.views /. w.wall_s);
  set "ops_per_s" "1/s" (float_of_int w.ops /. w.wall_s);
  set "sim_link_ms_per_request" "ms" (sim_link_ms w);
  set "publish_p50_ms" "ms" (median w.publish_lat);
  set "publish_p90_ms" "ms" (percentile w.publish_lat 0.9);
  set "update_visible_p50_ms" "ms" (median w.update_lat);
  set "update_visible_p90_ms" "ms" (percentile w.update_lat 0.9);
  set "revoke_visible_p50_ms" "ms" (median w.revoke_lat);
  set "top_heap_mb" "MB" (top_heap_mb ());
  Printf.eprintf "policy_churn: %d ops (%d reads, %d updates, %d revokes) in %.2f s\n%!" w.ops
    w.reads (List.length w.update_lat) (List.length w.revoke_lat) w.wall_s

let run_traced opts =
  let fx, _ = repeat_setup 1 (build opts) in
  let half = opts.seconds /. 2.0 in
  (* The sampled reads are replayed inside the traced loop, right after
     each one, so layer times and the op wall share the host's speed: on
     twin cards of the same subjects, a primed one for warm reads and a
     cache-less one for cold reads. Each sample also replays a grant
     unwrap on its twin. *)
  let drbg = F.drbg_for ~seed:opts.seed "replay" in
  let twins = Hashtbl.create 8 in
  let twin_for s cold =
    match Hashtbl.find_opt twins (s, cold) with
    | Some t -> t
    | None ->
        let sj = fx.subs.(s) in
        let obs = Sdds_obs.Obs.create ~tracing:false () in
        let card =
          Card.create ~obs ~profile:Cost.fleet
            ?cache_budget_bytes:(if cold then Some 0 else None)
            ~subject:sj.name sj.kp
        in
        Hashtbl.replace twins (s, cold) (card, obs);
        (card, obs)
  in
  let r = Replay.create () and unwrap_samples = ref [] in
  let replay (s, d, q, cold, blob, key, published) =
    let sj = fx.subs.(s) in
    let twin, obs = twin_for s cold in
    let doc_id = fx.docs.(d).id in
    let wrapped = Publish.grant drbg ~doc_key:key ~doc_id ~recipient:sj.kp.Sdds_crypto.Rsa.public in
    let ms =
      replay_ms (fun () ->
          match Card.install_wrapped_key twin ~doc_id ~wrapped with
          | Ok () -> ()
          | Error e -> failwith ("twin grant: " ^ F.card_error_string e))
    in
    unwrap_samples := ms :: !unwrap_samples;
    ignore (Replay.pull r ~twin ~cold ~subject:sj.name published ~key ~blob ~query:queries.(q));
    if r.Replay.n = 1 then
      Replay.reconcile_engine ~obs ~twin (Publish.to_source published ~delivery:`Pull) ~blob
        ~query:queries.(q)
  in
  let cache0 = Array.map (fun sj -> Card.cache_stats sj.card) fx.subs in
  start_tracing ();
  let g0 = gc_mark () in
  let w = loop ~on_sample:replay opts fx ~seconds:half ~corrupt:opts.corrupt_reference in
  let minor, majors = gc_since g0 in
  stop_tracing ();
  let misses =
    Array.fold_left ( + ) 0
      (Array.mapi (fun i sj -> (Card.cache_stats sj.card).Card.misses - cache0.(i).Card.misses) fx.subs)
  in
  det_f "sim_link_ms_per_request" (sim_link_ms w);
  let traced_wall_per_op = w.wall_s *. 1000.0 /. float_of_int w.ops in
  let query_ms = per_op (span_total_ms "client.query") w.ops in
  let dsp_ms =
    per_op
      (List.fold_left ( +. ) 0.0
         (List.map span_total_ms [ "dsp.encrypt_rules"; "dsp.rotate"; "dsp.grant"; "dsp.put_rules" ]))
      w.ops
  in
  let untraced = loop opts fx ~seconds:half ~corrupt:false in
  let untraced_wall_per_op = untraced.wall_s *. 1000.0 /. float_of_int untraced.ops in
  let verify_ms, sign_ms = Replay.rsa_costs fx.publisher fx.docs.(0).published in
  let unwrap_ms = median !unwrap_samples in
  let reads_per_op = ratio w.reads w.ops in
  Replay.emit r ~verify_ms ~ops_per_replay:reads_per_op;
  (* the counts are the bench's own: one signature per DSP call it makes,
     one unwrap per grant it knows the proxy sends to a card *)
  set "crypto.rsa_private_ops" "ops/op" (ratio (w.signs + w.unwraps) w.ops);
  set "crypto.rsa_private_ms" "ms/op"
    (((float_of_int w.signs *. sign_ms) +. (float_of_int w.unwraps *. unwrap_ms))
    /. float_of_int w.ops);
  set "core.compile_count" "compiles/op" (ratio misses w.ops);
  set "soe.prepared_hit_ratio" "ratio" (ratio w.hits w.views);
  let term = Layers.get "core.reassemble_ms" +. Layers.get "xml.serialize_ms" in
  set "soe.card_busy_ms" "ms/op" (query_ms -. term);
  set "proxy.self_ms" "ms/op" term;
  set "soe.apdu_frames" "frames/op" (per_op (float_of_int w.prefix_frames) w.prefix_reads);
  set "soe.apdu_bytes" "bytes/op" (per_op (float_of_int w.prefix_bytes) w.prefix_reads);
  set "fleet.affinity_hit_ratio" "ratio" 0.0;
  set "fleet.queue_peak" "count" 0.0;
  set "pool.warm_setup_ratio" "ratio" (ratio w.hits w.views);
  set "pool.retries" "count" 0.0;
  set "gc.minor_words_per_op" "words/op" (per_op minor w.ops);
  set "gc.major_collections" "count" (float_of_int majors);
  set "trace.overhead_pct" "%" (((traced_wall_per_op /. untraced_wall_per_op) -. 1.0) *. 100.0);
  let rows =
    Replay.rows r ~verify_ms ~ops_per_replay:reads_per_op
    @ [ ("dsp (rules, grants, rotation)", dsp_ms, None);
        ("crypto.rsa_private (card unwraps)", ratio w.unwraps w.ops *. unwrap_ms, None) ]
  in
  Layers.finish ~workload:"policy_churn" ~ops:w.ops ~wall_per_op:traced_wall_per_op ~rows
