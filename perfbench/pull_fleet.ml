(* pull_fleet — the collaborative application: a closed loop of 8 clients
   pulling views of encrypted hospital documents through a 2-card fleet
   (4 logical channels each) over in-process APDU transports. A second
   subject, reading through a direct card of its own, holds rules on the
   documents the revocation probes rotate, so each revocation has a
   survivor. *)

open Common
module F = Fixture
module Rng = Sdds_util.Rng
module Store = Sdds_dsp.Store
module Publish = Sdds_dsp.Publish
module Rule = Sdds_core.Rule
module Card = Sdds_soe.Card
module Cost = Sdds_soe.Cost
module Apdu = Sdds_soe.Apdu
module Remote_card = Sdds_soe.Remote_card
module Proxy = Sdds_proxy.Proxy
module Fleet = Sdds_proxy.Fleet
module Client = Sdds_proxy.Client
module Generator = Sdds_xml.Generator

let subject = "u"
let survivor = "v"
let queries = [| None; Some "//patient/name"; Some "//patient" |]

(* Document sizes are a fixed ladder (~3 KB to ~90 KB) and popularity
   ranks map onto it through a fixed permutation, so the expected work
   per request does not depend on the seed; the seed draws the contents
   and the request sequence. *)
let patients_full = [| 4; 8; 12; 18; 24; 32; 40; 52; 64; 80; 100; 118 |]
let patients_tiny = [| 2; 4; 6 |]
let rank_full = [| 5; 2; 8; 0; 10; 3; 7; 1; 11; 4; 9; 6 |]
let rank_tiny = [| 1; 0; 2 |]

(* Rule variants: two broad ones and one narrow one. *)
let variant_rules ?(subject = subject) k =
  match k mod 3 with
  | 0 -> [ Rule.allow ~subject "//patient"; Rule.deny ~subject "//ssn" ]
  | 1 -> [ Rule.allow ~subject "//admission" ]
  | _ -> [ Rule.allow ~subject "//patient"; Rule.deny ~subject "//diagnosis" ]

type doc = {
  id : string;
  dom : Sdds_xml.Dom.t;
  mutable published : Publish.published;
  mutable key : string;
  mutable variant : int;
  mutable version : int;
  mutable blob : string;
}

(* Frames and bytes seen by the transport wrappers, and the inclusion
   proofs the cards asked the resolve closure for. *)
type wire = { mutable frames : int; mutable bytes : int; mutable proofs : int }

type fx = {
  store : Store.t;
  docs : doc array;
  rank : int array;
  cards : Card.t array;
  fleet : Fleet.t;
  publisher : Sdds_crypto.Rsa.keypair;
  user : Sdds_crypto.Rsa.keypair;
  other : Sdds_crypto.Rsa.keypair;  (* the survivor's card key *)
  other_client : Client.t;
  drbg : Sdds_crypto.Drbg.t;
  wire : wire;
  oracle : (int * int * int, string option) Hashtbl.t;  (* doc, variant, query *)
  seen : (int * int, unit) Hashtbl.t;  (* (doc, card) pairs served so far *)
}

(* The oracle view of document [d] under rule variant [v] and query [q];
   the view does not depend on the subject the rules name. *)
let reference_for fx ~corrupt_first d v q =
  let k = (d, v, q) in
  match Hashtbl.find_opt fx.oracle k with
  | Some x -> x
  | None ->
      let x = F.oracle_xml ?query:queries.(q) ~rules:(variant_rules v) fx.docs.(d).dom in
      let x = if corrupt_first && Hashtbl.length fx.oracle = 0 then F.corrupt x else x in
      Hashtbl.replace fx.oracle k x;
      x

let reference fx ~corrupt_first d q = reference_for fx ~corrupt_first d fx.docs.(d).variant q

(* The documents the revocation probes rotate: the smallest ones, so a
   revocation's cost is rotation-bound. The survivor holds the broad
   rules (variant 0) on each. *)
let revoke_docs opts = if opts.tiny then 1 else 3

let build opts () =
  let seed = opts.seed in
  let rng = Rng.create (Int64.of_int seed) in
  let drbg = F.drbg_for ~seed "pull" in
  let publisher = F.keygen drbg in
  let user = F.keygen drbg in
  let other = F.keygen drbg in
  let store = Store.create () in
  let patients = if opts.tiny then patients_tiny else patients_full in
  let docs =
    Array.mapi
      (fun k n ->
        let id = Printf.sprintf "doc%02d" k in
        let dom = Generator.hospital (Rng.split rng) ~patients:n in
        let published, key = F.publish drbg ~publisher ~doc_id:id dom in
        Store.put_document store published;
        let variant = k mod 3 in
        let blob =
          F.encrypt_rules drbg ~publisher ~doc_key:key ~doc_id:id ~subject ~version:0
            (variant_rules variant)
        in
        Store.put_rules store ~doc_id:id ~subject blob;
        Store.put_grant store ~doc_id:id ~subject
          (F.grant drbg ~doc_key:key ~doc_id:id ~recipient:user.Sdds_crypto.Rsa.public);
        if k < revoke_docs opts then begin
          Store.put_rules store ~doc_id:id ~subject:survivor
            (F.encrypt_rules drbg ~publisher ~doc_key:key ~doc_id:id ~subject:survivor ~version:0
               (variant_rules ~subject:survivor 0));
          Store.put_grant store ~doc_id:id ~subject:survivor
            (F.grant drbg ~doc_key:key ~doc_id:id ~recipient:other.Sdds_crypto.Rsa.public)
        end;
        { id; dom; published; key; variant; version = 0; blob })
      patients
  in
  let other_client =
    Client.direct ~store ~card:(Card.create ~profile:Cost.fleet ~subject:survivor other)
  in
  let wire = { frames = 0; bytes = 0; proofs = 0 } in
  (* The resolve/prove closures the bench hands to the card hosts count
     the inclusion proofs the cards ask for. *)
  let resolve id =
    Option.map
      (fun p ->
        let src = Publish.to_source p ~delivery:`Pull in
        let prove i =
          wire.proofs <- wire.proofs + 1;
          src.Card.prove i
        in
        { src with Card.prove })
      (Store.get_document store id)
  in
  let cards = Array.init 2 (fun _ -> Card.create ~profile:Cost.fleet ~subject user) in
  let transports =
    Array.map
      (fun card ->
        let host = Remote_card.Host.create ~card ~resolve () in
        fun cmd ->
          wire.frames <- wire.frames + 2;
          wire.bytes <- wire.bytes + String.length (Apdu.encode_command cmd);
          let resp = span "soe.transport" (fun () -> Remote_card.Host.process host cmd) in
          wire.bytes <- wire.bytes + String.length (Apdu.encode_response resp);
          resp)
      cards
  in
  let fleet = Fleet.create ~store ~subject transports in
  (* Warm-up: every (document, query) once, so keys are installed,
     prepared caches and channels are warm before timing. *)
  let warm =
    List.concat_map
      (fun d -> List.init (Array.length queries) (fun q -> Proxy.Request.make ?xpath:queries.(q) d.id))
      (Array.to_list docs)
  in
  let seen = Hashtbl.create 32 in
  List.iteri
    (fun i (o : Fleet.outcome) ->
      match o.Fleet.result with
      | Ok _ -> Hashtbl.replace seen (i / Array.length queries, o.Fleet.card) ()
      | Error e -> failwith (Format.asprintf "pull_fleet warm-up: %a" Proxy.pp_error e))
    (Fleet.serve fleet warm);
  {
    store; docs; rank = (if opts.tiny then rank_tiny else rank_full); cards; fleet; publisher;
    user; other; other_client; drbg; wire;
    oracle = Hashtbl.create 64; seen;
  }

(* One fleet request, run to completion on its own (policy probes). *)
let serve_one fx ~doc ~q =
  match Fleet.serve fx.fleet [ Proxy.Request.make ?xpath:queries.(q) fx.docs.(doc).id ] with
  | [ o ] ->
      Hashtbl.replace fx.seen (doc, o.Fleet.card) ();
      o.Fleet.result
  | _ -> assert false

let clock_sum fx =
  let s = ref 0.0 in
  for i = 0 to Fleet.card_count fx.fleet - 1 do
    s := !s +. Fleet.clock fx.fleet i
  done;
  !s

let cache_totals fx =
  Array.fold_left
    (fun (h, m) c ->
      let s = Card.cache_stats c in
      (h + s.Card.hits, m + s.Card.misses))
    (0, 0) fx.cards

type client = {
  mutable stream : Fleet.stream option;
  mutable t0 : float;
  mutable req : int * int;  (* doc, query *)
}

type window = {
  mutable started : int;
  mutable completed : int;
  mutable ok_views : int;
  mutable lat : float list;
  mutable wall_s : float;
  mutable served_frames : int;
  mutable served_bytes : int;
  mutable wire_frames : int;  (* seen by the transport wrappers in the window *)
  mutable wire_bytes : int;
  mutable warm : int;
  mutable retries : int;
  mutable samples : (int * int) list;  (* replayed (doc, query) *)
  mutable prefix_sim_ms : float;
  mutable prefix_frames : int;
  mutable prefix_bytes : int;
  mutable prefix_proofs : int;
  mutable digest : int;  (* running hash of the op sequence *)
}

let new_window () =
  {
    started = 0; completed = 0; ok_views = 0; lat = []; wall_s = 0.0; served_frames = 0;
    served_bytes = 0; wire_frames = 0; wire_bytes = 0; warm = 0; retries = 0; samples = [];
    prefix_sim_ms = 0.0; prefix_frames = 0; prefix_bytes = 0; prefix_proofs = 0; digest = 0;
  }

let prefix_ops opts = if opts.tiny then 12 else 96
let sample_stride = 4

(* Zipf(1.1) popularity over the documents, each document's requests
   spread evenly over the three queries; one deck is the prefix. *)
let request_deck opts fx =
  let n = Array.length fx.docs in
  let weights =
    List.concat
      (List.init n (fun r ->
           List.init (Array.length queries) (fun q ->
               ((fx.rank.(r), q), 1.0 /. Float.pow (float_of_int (r + 1)) 1.1))))
  in
  F.deck (Rng.create (Int64.of_int ((opts.seed * 7919) + 17))) ~size:(prefix_ops opts) weights

(* One segment of the closed loop, accumulated into [w]: each client
   issues its next request only after its previous reply. New requests
   start until [seconds] have passed and the deterministic prefix (the
   first deck) has started; the [final] segment also stops only at a
   deck boundary, so a run serves whole decks. In-flight requests then
   drain, so a segment ends quiesced. [on_sample] runs on each sampled
   request of the prefix, outside the loop's wall time. *)
let closed_loop ?(on_sample = fun _ _ -> ()) opts fx w deck ~seconds ~final ~corrupt =
  let k = prefix_ops opts in
  let clients = Array.init 8 (fun _ -> { stream = None; t0 = 0.0; req = (0, 0) }) in
  let sim0 = clock_sum fx in
  fx.wire.frames <- 0;
  fx.wire.bytes <- 0;
  fx.wire.proofs <- 0;
  excluded_s := 0.0;
  let t_start = now () in
  let deadline = t_start +. seconds in
  let more () = w.started < k || now () < deadline || (final && w.started mod k <> 0) in
  let start c =
    let d, q = F.deal deck in
    c.req <- (d, q);
    c.t0 <- now ();
    w.started <- w.started + 1;
    c.stream <- Some (Fleet.start fx.fleet (Proxy.Request.make ?xpath:queries.(q) fx.docs.(d).id))
  in
  Array.iter start clients;
  let active = ref (Array.length clients) in
  while !active > 0 do
    span "fleet.turn" (fun () -> Fleet.turn fx.fleet);
    Array.iter
      (fun c ->
        match c.stream with
        | None -> ()
        | Some st -> (
            match Fleet.result st with
            | None -> ()
            | Some o ->
                let lat_ms = ms_since c.t0 in
                let d, q = c.req in
                Hashtbl.replace fx.seen (d, o.Fleet.card) ();
                let idx = w.completed in
                w.completed <- w.completed + 1;
                if idx < k then w.digest <- Hashtbl.hash (w.digest, d, q);
                (match o.Fleet.result with
                | Ok s ->
                    w.lat <- lat_ms :: w.lat;
                    w.ok_views <- w.ok_views + 1;
                    w.served_frames <-
                      w.served_frames + s.Proxy.Pool.command_frames + s.Proxy.Pool.response_frames;
                    w.served_bytes <- w.served_bytes + s.Proxy.Pool.wire_bytes;
                    if s.Proxy.Pool.warm_setup then w.warm <- w.warm + 1;
                    w.retries <- w.retries + s.Proxy.Pool.retries;
                    checked (fun () ->
                        let expected = reference fx ~corrupt_first:corrupt d q in
                        attempt (F.xml_equal s.Proxy.Pool.xml expected)
                          (Printf.sprintf "pull %s q%d: view differs from the oracle"
                             fx.docs.(d).id q))
                | Error e ->
                    w.lat <- Float.infinity :: w.lat;
                    attempt false (Format.asprintf "pull %s: %a" fx.docs.(d).id Proxy.pp_error e));
                if idx < k && idx mod sample_stride = 0 then begin
                  w.samples <- (d, q) :: w.samples;
                  checked (fun () -> on_sample d q)
                end;
                if idx + 1 = k then begin
                  w.prefix_sim_ms <- (clock_sum fx -. sim0) *. 1000.0;
                  w.prefix_frames <- fx.wire.frames;
                  w.prefix_bytes <- fx.wire.bytes;
                  w.prefix_proofs <- fx.wire.proofs
                end;
                if more () then start c
                else begin
                  c.stream <- None;
                  decr active
                end))
      clients
  done;
  w.wall_s <- w.wall_s +. (now () -. t_start -. !excluded_s);
  w.wire_frames <- w.wire_frames + fx.wire.frames;
  w.wire_bytes <- w.wire_bytes + fx.wire.bytes

(* The loop in [blocks] segments of equal length; [between] runs after
   each one, outside the loop's wall time, on a quiesced fleet. *)
let segmented_loop opts fx ~blocks ~between =
  let w = new_window () and deck = request_deck opts fx in
  for b = 0 to blocks - 1 do
    closed_loop opts fx w deck
      ~seconds:(opts.seconds /. float_of_int blocks)
      ~final:(b = blocks - 1) ~corrupt:opts.corrupt_reference;
    between b
  done;
  w

(* Policy probes, interleaved with the loop segments so they sample the
   same stretch of host time as the loop: rule updates made visible
   through the fleet, and revocations that the next read must refuse.
   Each block starts from a collected heap, so the loop's garbage is not
   charged to the probes. The probe sequences are fixed, the same for
   every seed. *)
type probes = { mutable updates : float list; mutable revokes : float list }

(* Two blocks: the first segment must hold the whole first deck, so more
   segments would only stretch the loop past [seconds]. *)
let probe_blocks _ = 2
let updates_per_block opts = if opts.tiny then 1 else 5
let revokes_per_block opts = if opts.tiny then 1 else 2

(* Update probes cycle over three documents across the size ladder that
   the revocations leave alone, so every update read meets a card
   holding the current key. *)
let update_doc opts fx i =
  let r = revoke_docs opts in
  let step = max 1 ((Array.length fx.docs - r) / 3) in
  min (Array.length fx.docs - 1) (r + (i mod 3 * step))

let update_rules fx d =
  let doc = fx.docs.(d) in
  doc.variant <- (doc.variant + 1) mod 3;
  doc.version <- doc.version + 1;
  doc.blob <-
    F.encrypt_rules fx.drbg ~publisher:fx.publisher ~doc_key:doc.key ~doc_id:doc.id ~subject
      ~version:doc.version (variant_rules doc.variant);
  Store.put_rules fx.store ~doc_id:doc.id ~subject doc.blob

(* A policy update changes the affinity key, so its read may land on a
   card that never served the document and must first unwrap its grant.
   Untimed updates bring every probed document onto both cards first,
   so each timed probe measures the same warm path. *)
let prewarm_probes opts fx =
  let n_updates = probe_blocks opts * updates_per_block opts in
  let probed = List.init n_updates (update_doc opts fx) in
  List.iter
    (fun d ->
      let tries = ref 0 in
      while
        !tries < 8
        && not
             (List.for_all
                (fun c -> Hashtbl.mem fx.seen (d, c))
                (List.init (Fleet.card_count fx.fleet) Fun.id))
      do
        incr tries;
        update_rules fx d;
        match serve_one fx ~doc:d ~q:0 with
        | Ok s ->
            attempt
              (F.xml_equal s.Proxy.Pool.xml (reference fx ~corrupt_first:false d 0))
              "probe warm-up: view differs from the oracle"
        | Error e -> attempt false (Format.asprintf "probe warm-up: %a" Proxy.pp_error e)
      done)
    (List.sort_uniq compare probed)

let update_probe opts fx p i =
  let d = update_doc opts fx i and q = i mod Array.length queries in
  let t0 = now () in
  update_rules fx d;
  let r = serve_one fx ~doc:d ~q in
  let ms = ms_since t0 in
  match r with
  | Ok s ->
      p.updates <- ms :: p.updates;
      attempt
        (F.xml_equal s.Proxy.Pool.xml (reference fx ~corrupt_first:false d q))
        "update probe: the new view differs from the oracle"
  | Error e ->
      p.updates <- Float.infinity :: p.updates;
      attempt false (Format.asprintf "update probe: %a" Proxy.pp_error e)

(* A revocation of [subject] on document [d]: key rotation, then a fresh
   rule blob and grant for the survivor only. [subject]'s blob and grant
   stay as they were, and its next read through the fleet must be
   refused with a typed card error. Untimed afterwards: the survivor
   reads through its own card, and [subject] is re-admitted with a blob
   and a grant under the new key. *)
let revoke_probe opts fx p i =
  let d = i mod revoke_docs opts and q = i mod Array.length queries in
  let doc = fx.docs.(d) in
  let t0 = now () in
  let published, key = F.rotate fx.drbg ~publisher:fx.publisher ~old_key:doc.key doc.published in
  Store.put_document fx.store published;
  doc.published <- published;
  doc.key <- key;
  Store.put_rules fx.store ~doc_id:doc.id ~subject:survivor
    (F.encrypt_rules fx.drbg ~publisher:fx.publisher ~doc_key:key ~doc_id:doc.id
       ~subject:survivor ~version:(doc.version + 1) (variant_rules ~subject:survivor 0));
  Store.put_grant fx.store ~doc_id:doc.id ~subject:survivor
    (F.grant fx.drbg ~doc_key:key ~doc_id:doc.id ~recipient:fx.other.Sdds_crypto.Rsa.public);
  let refused = serve_one fx ~doc:d ~q in
  let ms = ms_since t0 in
  (match refused with
  | Error (Proxy.Card_error _) ->
      p.revokes <- ms :: p.revokes;
      attempt true ""
  | Error e ->
      p.revokes <- Float.infinity :: p.revokes;
      attempt false (Format.asprintf "revoke probe: untyped refusal %a" Proxy.pp_error e)
  | Ok _ ->
      p.revokes <- Float.infinity :: p.revokes;
      attempt false (Printf.sprintf "revoke probe %s q%d: a revoked subject received a view" doc.id q));
  (match Client.query fx.other_client ?xpath:queries.(q) doc.id with
  | Ok s ->
      attempt
        (F.xml_equal s.Proxy.Pool.xml (reference_for fx ~corrupt_first:false d 0 q))
        "revoke probe: the survivor's view differs from the oracle"
  | Error e -> attempt false (Format.asprintf "revoke probe: survivor refused: %a" Proxy.pp_error e));
  doc.version <- doc.version + 1;
  doc.blob <-
    F.encrypt_rules fx.drbg ~publisher:fx.publisher ~doc_key:key ~doc_id:doc.id ~subject
      ~version:doc.version (variant_rules doc.variant);
  Store.put_rules fx.store ~doc_id:doc.id ~subject doc.blob;
  Store.put_grant fx.store ~doc_id:doc.id ~subject
    (F.grant fx.drbg ~doc_key:key ~doc_id:doc.id ~recipient:fx.user.Sdds_crypto.Rsa.public);
  match serve_one fx ~doc:d ~q with
  | Ok s ->
      attempt
        (F.xml_equal s.Proxy.Pool.xml (reference fx ~corrupt_first:false d q))
        "re-admission: view differs from the oracle"
  | Error e -> attempt false (Format.asprintf "re-admission: %a" Proxy.pp_error e)

let probe_block opts fx p b =
  (* after the first segment, so the deterministic prefix runs on the
     same state as in the traced run *)
  if b = 0 then prewarm_probes opts fx;
  Gc.full_major ();
  let nu = updates_per_block opts and nr = revokes_per_block opts in
  for j = 0 to nu - 1 do
    update_probe opts fx p ((b * nu) + j)
  done;
  for j = 0 to nr - 1 do
    revoke_probe opts fx p ((b * nr) + j)
  done

let report_window ~prefix w =
  det "op_digest" (string_of_int w.digest);
  det_f "sim_link_ms_per_request" (per_op w.prefix_sim_ms prefix);
  det_i "prefix.apdu_frames" w.prefix_frames;
  det_i "prefix.apdu_bytes" w.prefix_bytes;
  det_i "prefix.merkle_proofs" w.prefix_proofs

(* Reconciliation: the transport wrappers saw exactly the frames and
   bytes the pool accounts to the requests served in the loop. *)
let reconcile_wire w =
  reconcile "transport frames = pool command+response frames" w.wire_frames w.served_frames;
  reconcile "transport bytes = pool wire_bytes" w.wire_bytes w.served_bytes

let run_e2e opts =
  let fx, setup_s = repeat_setup (setup_reps opts) (build opts) in
  let k = prefix_ops opts in
  let p = { updates = []; revokes = [] } in
  let w = segmented_loop opts fx ~blocks:(probe_blocks opts) ~between:(probe_block opts fx p) in
  reconcile_wire w;
  report_window ~prefix:k w;
  let rps = float_of_int w.completed /. w.wall_s in
  set "setup_s" "s" setup_s;
  set "request_p50_ms" "ms" (median w.lat);
  set "request_p95_ms" "ms" (percentile w.lat 0.95);
  set "requests_per_s" "1/s" rps;
  set "ops_per_s" "1/s" rps;
  set "views_per_s" "1/s" (float_of_int w.ok_views /. w.wall_s);
  set "sim_link_ms_per_request" "ms" (per_op w.prefix_sim_ms k);
  set "publish_p50_ms" "ms" (median !F.publish_ms);
  set "publish_p90_ms" "ms" (percentile !F.publish_ms 0.9);
  set "update_visible_p50_ms" "ms" (median p.updates);
  set "update_visible_p90_ms" "ms" (percentile p.updates 0.9);
  set "revoke_visible_p50_ms" "ms" (median p.revokes);
  set "top_heap_mb" "MB" (top_heap_mb ());
  Printf.eprintf "pull_fleet: %d requests in %.2f s, %d updates, %d revocations\n%!" w.completed
    w.wall_s (List.length p.updates) (List.length p.revokes)

(* Traced run: an untraced half and a traced half of the loop (their
   ratio is the tracing overhead), then the replay on sampled requests
   and the twin-card reconciliation. *)
let run_traced opts =
  let fx, _ = repeat_setup 1 (build opts) in
  let k = prefix_ops opts in
  let half = opts.seconds /. 2.0 in
  (* the replay runs inside the traced loop, right after each sampled
     request, so layer times and the op wall share the host's speed *)
  let twin_obs = Sdds_obs.Obs.create ~tracing:false () in
  let twin = Card.create ~obs:twin_obs ~profile:Cost.fleet ~subject fx.user in
  let installed = Hashtbl.create 8 in
  let r = Replay.create () in
  let replay d q =
    let doc = fx.docs.(d) in
    if not (Hashtbl.mem installed d) then begin
      Hashtbl.replace installed d ();
      match
        Card.install_wrapped_key twin ~doc_id:doc.id
          ~wrapped:(Option.get (Store.get_grant fx.store ~doc_id:doc.id ~subject))
      with
      | Ok () -> ()
      | Error e -> fail ("twin grant: " ^ F.card_error_string e)
    end;
    ignore
      (Replay.pull r ~twin ~cold:false ~subject doc.published ~key:doc.key ~blob:doc.blob
         ~query:queries.(q))
  in
  start_tracing ();
  let f0 = Fleet.stats fx.fleet in
  let h0, m0 = cache_totals fx in
  let g0 = gc_mark () in
  let w = new_window () in
  closed_loop ~on_sample:replay opts fx w (request_deck opts fx) ~seconds:half ~final:true
    ~corrupt:opts.corrupt_reference;
  let minor, majors = gc_since g0 in
  let h1, m1 = cache_totals fx in
  let f1 = Fleet.stats fx.fleet in
  stop_tracing ();
  reconcile_wire w;
  report_window ~prefix:k w;
  let traced_wall_per_op = w.wall_s *. 1000.0 /. float_of_int w.completed in
  let busy_ms = span_total_ms "soe.transport" in
  let untraced = new_window () in
  closed_loop opts fx untraced (request_deck opts fx) ~seconds:half ~final:true ~corrupt:false;
  let untraced_wall_per_op = untraced.wall_s *. 1000.0 /. float_of_int untraced.completed in
  (match w.samples with
  | (d, q) :: _ ->
      let doc = fx.docs.(d) in
      Replay.reconcile_engine ~obs:twin_obs ~twin
        (Publish.to_source doc.published ~delivery:`Pull)
        ~blob:doc.blob ~query:queries.(q)
  | [] -> ());
  let verify_ms, _sign_ms = Replay.rsa_costs fx.publisher fx.docs.(0).published in
  Replay.emit r ~verify_ms ~ops_per_replay:1.0;
  (* the cards' real cache traffic in the window decides the miss work *)
  let misses = m1 - m0 and hits = h1 - h0 in
  set "core.compile_count" "compiles/op" (ratio misses w.completed);
  set "soe.prepared_hit_ratio" "ratio" (ratio hits (hits + misses));
  set "crypto.merkle_proofs" "proofs/op" (per_op (float_of_int w.prefix_proofs) k);
  (* RSA private operations run in set-up only *)
  set "crypto.rsa_private_ops" "ops/op" 0.0;
  set "crypto.rsa_private_ms" "ms/op" 0.0;
  set "soe.card_busy_ms" "ms/op" (per_op busy_ms w.completed);
  set "soe.apdu_frames" "frames/op" (per_op (float_of_int w.prefix_frames) k);
  set "soe.apdu_bytes" "bytes/op" (per_op (float_of_int w.prefix_bytes) k);
  set "proxy.self_ms" "ms/op" (traced_wall_per_op -. per_op busy_ms w.completed);
  let dreq = f1.Fleet.requests - f0.Fleet.requests in
  set "fleet.affinity_hit_ratio" "ratio" (ratio (f1.Fleet.affinity_hits - f0.Fleet.affinity_hits) dreq);
  set "fleet.queue_peak" "count" (float_of_int f1.Fleet.queue_peak);
  set "pool.warm_setup_ratio" "ratio" (ratio w.warm w.ok_views);
  set "pool.retries" "count" (float_of_int w.retries);
  set "gc.minor_words_per_op" "words/op" (per_op minor w.completed);
  set "gc.major_collections" "count" (float_of_int majors);
  set "trace.overhead_pct" "%" (((traced_wall_per_op /. untraced_wall_per_op) -. 1.0) *. 100.0);
  Layers.finish ~workload:"pull_fleet" ~ops:w.completed ~wall_per_op:traced_wall_per_op
    ~rows:(Replay.rows r ~verify_ms ~ops_per_replay:1.0)
