(* dissem_fanout — the parental-control gateway: back-to-back publishes of
   pre-published feed segments through [Client.deliver] on a direct
   gateway card, each pushed to 32 subscribers holding 8 distinct
   policies (6 predicate-free channel rules, 2 with value predicates). *)

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
module Fanout = Sdds_dissem.Fanout

let gateway = "#gateway"
let n_policies = 8

let policy k s =
  match k mod n_policies with
  | 0 -> [ Rule.allow ~subject:s "//sports" ]
  | 1 -> [ Rule.allow ~subject:s "//news" ]
  | 2 -> [ Rule.allow ~subject:s "//movies"; Rule.allow ~subject:s "//kids" ]
  | 3 -> [ Rule.allow ~subject:s "//finance" ]
  | 4 -> [ Rule.allow ~subject:s "//news"; Rule.allow ~subject:s "//sports" ]
  | 5 -> [ Rule.allow ~subject:s "//kids" ]
  | 6 -> [ Rule.allow ~subject:s {|//movies[rating="G"]|} ]
  | _ -> [ Rule.allow ~subject:s {|//kids[rating="G"]|}; Rule.allow ~subject:s "//news" ]

type segment = {
  id : string;
  dom : Sdds_xml.Dom.t;
  mutable published : Publish.published;
  mutable key : string;
  subs : string array;
  pol : int array;  (* policy index per subscriber *)
  ver : int array;  (* rule-blob version per subscriber *)
  revoked : bool array;
}

type fx = {
  store : Store.t;
  segs : segment array;
  card : Card.t;
  client : Client.t;
  publisher : Sdds_crypto.Rsa.keypair;
  gw : Sdds_crypto.Rsa.keypair;
  drbg : Sdds_crypto.Drbg.t;
  rng : Rng.t;
  oracle : (string * int, string option) Hashtbl.t;  (* segment, policy *)
}

let reference fx ~corrupt seg k =
  match Hashtbl.find_opt fx.oracle (seg.id, k) with
  | Some x -> x
  | None ->
      (* the oracle view is subject-independent: rules are evaluated for
         their own subject *)
      let x = F.oracle_xml ~rules:(policy k "x") seg.dom in
      let x = if corrupt && Hashtbl.length fx.oracle = 0 then F.corrupt x else x in
      Hashtbl.replace fx.oracle (seg.id, k) x;
      x

let put_blob fx seg i =
  let s = seg.subs.(i) in
  Store.put_rules fx.store ~doc_id:seg.id ~subject:s
    (F.encrypt_rules fx.drbg ~publisher:fx.publisher ~doc_key:seg.key ~doc_id:seg.id ~subject:s
       ~version:seg.ver.(i) (policy seg.pol.(i) s))

let put_gateway_grant fx seg =
  Store.put_grant fx.store ~doc_id:seg.id ~subject:gateway
    (F.grant fx.drbg ~doc_key:seg.key ~doc_id:seg.id ~recipient:fx.gw.Sdds_crypto.Rsa.public)

let new_segment fx ~id ~events ~subs =
  let dom = Generator.feed_tagged (Rng.split fx.rng) ~events in
  let published, key = F.publish fx.drbg ~publisher:fx.publisher ~doc_id:id dom in
  Store.put_document fx.store published;
  let n = Array.length subs in
  let seg =
    {
      id; dom; published; key; subs; pol = Array.init n (fun i -> i mod n_policies);
      ver = Array.make n 0; revoked = Array.make n false;
    }
  in
  Array.iteri (fun i _ -> put_blob fx seg i) subs;
  put_gateway_grant fx seg;
  seg

let deliver fx seg = Client.deliver fx.client ~doc_id:seg.id (Array.to_list seg.subs)

(* Check one deliver: every admitted subscriber got exactly its oracle
   view, every revoked one a typed refusal. Returns the wire bytes of
   the delivered views. *)
let check fx ~corrupt seg result =
  match result with
  | Error e ->
      attempt false (Format.asprintf "deliver %s: %a" seg.id Proxy.pp_error e);
      (0, 0)
  | Ok (per, _) ->
      let bytes = ref 0 and frames = ref 0 and bad = ref None in
      List.iteri
        (fun i (s, r) ->
          match (r, seg.revoked.(i)) with
          | Ok (sv : Proxy.Pool.served), false ->
              bytes := !bytes + sv.Proxy.Pool.wire_bytes;
              frames := !frames + sv.Proxy.Pool.command_frames + sv.Proxy.Pool.response_frames;
              if not (F.xml_equal sv.Proxy.Pool.xml (reference fx ~corrupt seg seg.pol.(i))) then
                bad := Some (s ^ ": view differs from the oracle")
          | Ok _, true -> bad := Some (s ^ ": revoked subscriber received a view")
          | Error (Proxy.Card_error _), true -> ()
          | Error e, _ -> bad := Some (Format.asprintf "%s: %a" s Proxy.pp_error e))
        per;
      attempt (!bad = None)
        (Printf.sprintf "deliver %s: %s" seg.id (Option.value ~default:"" !bad));
      (!bytes, !frames)

let build opts () =
  let seed = opts.seed in
  let drbg = F.drbg_for ~seed "dissem" in
  let publisher = F.keygen drbg in
  let gw = F.keygen drbg in
  let store = Store.create () in
  let card = Card.create ~profile:Cost.fleet ~subject:gateway gw in
  let client = Client.direct ~store ~card in
  let fx0 =
    {
      store; segs = [||]; card; client; publisher; gw; drbg;
      rng = Rng.create (Int64.of_int seed); oracle = Hashtbl.create 32;
    }
  in
  let n_subs = if opts.tiny then 8 else 32 in
  let subs = Array.init n_subs (fun i -> Printf.sprintf "sub%02d" i) in
  let segs =
    Array.init (if opts.tiny then 1 else 2) (fun k ->
        new_segment fx0 ~id:(Printf.sprintf "seg%d" k) ~events:(if opts.tiny then 20 else 120)
          ~subs:(Array.copy subs))
  in
  let fx = { fx0 with segs } in
  (* warm-up: the gateway installs each segment key *)
  Array.iter
    (fun seg ->
      match deliver fx seg with
      | Ok _ -> ()
      | Error e -> failwith (Format.asprintf "dissem warm-up: %a" Proxy.pp_error e))
    segs;
  fx

type window = {
  mutable publishes : int;
  mutable views : int;
  mutable lat : float list;
  mutable wall_s : float;
  mutable prefix_bytes : int;
  mutable prefix_frames : int;
  mutable prefix_views : int;
  mutable stats_evals : int;  (* Fanout.stats.evaluations of the first publish *)
}

let prefix_ops opts = if opts.tiny then 2 else 8

(* One segment of back-to-back publishes, accumulated into [w]: it runs
   until [seconds] have passed and the deterministic prefix is done; the
   [final] segment also stops only after a whole round over the
   segments. [on_prefix] runs after each publish of the deterministic
   prefix, outside the loop's wall time. *)
let loop ?(on_prefix = fun _ -> ()) opts fx w ~seconds ~final ~corrupt =
  let k = prefix_ops opts in
  excluded_s := 0.0;
  let t_start = now () in
  let deadline = t_start +. seconds in
  let n_segs = Array.length fx.segs in
  while w.publishes < k || now () < deadline || (final && w.publishes mod n_segs <> 0) do
    let seg = fx.segs.(w.publishes mod n_segs) in
    let t0 = now () in
    let r = span "client.deliver" (fun () -> deliver fx seg) in
    let ms = ms_since t0 in
    let n = Array.length seg.subs in
    (match r with
    | Ok (_, stats) ->
        w.lat <- ms :: w.lat;
        w.views <- w.views + n;
        if w.stats_evals < 0 then
          w.stats_evals <- Option.fold ~none:0 ~some:(fun s -> s.Fanout.evaluations) stats
    | Error _ -> w.lat <- Float.infinity :: w.lat);
    let bytes, frames = checked (fun () -> check fx ~corrupt seg r) in
    if w.publishes < k then checked (fun () -> on_prefix seg);
    if w.publishes < k then begin
      w.prefix_bytes <- w.prefix_bytes + bytes;
      w.prefix_frames <- w.prefix_frames + frames;
      w.prefix_views <- w.prefix_views + n
    end;
    w.publishes <- w.publishes + 1
  done;
  w.wall_s <- w.wall_s +. (now () -. t_start -. !excluded_s)

let new_window () =
  {
    publishes = 0; views = 0; lat = []; wall_s = 0.0; prefix_bytes = 0; prefix_frames = 0;
    prefix_views = 0; stats_evals = -1;
  }

let sim_link_ms w =
  per_op (float_of_int w.prefix_bytes *. 1000.0 /. Cost.fleet.Cost.link_bytes_per_s) w.prefix_views

(* Policy probes, interleaved with the loop segments so they sample the
   same stretch of host time as the loop: a subscriber's policy update
   visible in the next publish, and a revocation on a small probe
   segment (rotate, re-grant the gateway, fresh blobs for the survivors
   only) after which the next publish must refuse the revoked
   subscriber. Each block starts from a collected heap. The probe
   sequences are fixed, the same for every seed. *)
type probes = {
  mutable updates : float list;
  mutable revokes : float list;
  mutable probe : segment option;  (* the revocation segment *)
  mutable prev : int option;  (* its previously revoked subscriber *)
}

let probe_blocks opts = if opts.tiny then 2 else 3
let updates_per_block opts = if opts.tiny then 1 else 3
let revokes_per_block opts = if opts.tiny then 1 else 2

let update_probe fx p i =
  let seg = fx.segs.(i mod Array.length fx.segs) in
  let j = (i * 7) mod Array.length seg.subs in
  let t0 = now () in
  seg.pol.(j) <- (seg.pol.(j) + 1) mod n_policies;
  seg.ver.(j) <- seg.ver.(j) + 1;
  put_blob fx seg j;
  let r = deliver fx seg in
  let ms = ms_since t0 in
  p.updates <- (match r with Ok _ -> ms | Error _ -> Float.infinity) :: p.updates;
  ignore (check fx ~corrupt:false seg r)

let revoke_probe fx p i =
  let probe = Option.get p.probe in
  (* re-admit the previously revoked subscriber *)
  (match p.prev with
  | Some j ->
      probe.revoked.(j) <- false;
      probe.ver.(j) <- probe.ver.(j) + 1;
      put_blob fx probe j
  | None -> ());
  let victim = i mod Array.length probe.subs in
  let t0 = now () in
  let published, key = F.rotate fx.drbg ~publisher:fx.publisher ~old_key:probe.key probe.published in
  probe.published <- published;
  probe.key <- key;
  Store.put_document fx.store published;
  put_gateway_grant fx probe;
  (match
     Card.install_wrapped_key fx.card ~doc_id:probe.id
       ~wrapped:(Option.get (Store.get_grant fx.store ~doc_id:probe.id ~subject:gateway))
   with
  | Ok () -> ()
  | Error e -> fail ("gateway re-grant: " ^ F.card_error_string e));
  Array.iteri
    (fun j _ ->
      if j <> victim then begin
        probe.ver.(j) <- probe.ver.(j) + 1;
        put_blob fx probe j
      end)
    probe.subs;
  probe.revoked.(victim) <- true;
  let r = deliver fx probe in
  let ms = ms_since t0 in
  p.revokes <- (match r with Ok _ -> ms | Error _ -> Float.infinity) :: p.revokes;
  ignore (check fx ~corrupt:false probe r);
  p.prev <- Some victim

let probe_block opts fx p b =
  if p.probe = None then
    p.probe <-
      Some
        (new_segment fx ~id:"probe" ~events:40
           ~subs:(Array.init 4 (fun i -> Printf.sprintf "probe%d" i)));
  Gc.full_major ();
  let nu = updates_per_block opts and nr = revokes_per_block opts in
  for j = 0 to nu - 1 do
    update_probe fx p ((b * nu) + j)
  done;
  for j = 0 to nr - 1 do
    revoke_probe fx p ((b * nr) + j)
  done

let run_e2e opts =
  let fx, setup_s = repeat_setup (setup_reps opts) (build opts) in
  let w = new_window () and p = { updates = []; revokes = []; probe = None; prev = None } in
  let blocks = probe_blocks opts in
  for b = 0 to blocks - 1 do
    loop opts fx w
      ~seconds:(opts.seconds /. float_of_int blocks)
      ~final:(b = blocks - 1) ~corrupt:opts.corrupt_reference;
    probe_block opts fx p b
  done;
  det_f "sim_link_ms_per_request" (sim_link_ms w);
  det_i "prefix.apdu_frames" w.prefix_frames;
  det_i "prefix.wire_bytes" w.prefix_bytes;
  det_i "fanout.evaluations" w.stats_evals;
  det "op_digest" (string_of_int (Hashtbl.hash (fx.segs.(0).published.Publish.merkle_root, w.prefix_bytes)));
  let views_per_s = float_of_int w.views /. w.wall_s in
  set "setup_s" "s" setup_s;
  (* every subscriber's view is ready when its publish returns *)
  set "request_p50_ms" "ms" (median w.lat);
  set "request_p95_ms" "ms" (percentile w.lat 0.95);
  set "requests_per_s" "1/s" views_per_s;
  set "views_per_s" "1/s" views_per_s;
  set "ops_per_s" "1/s" (float_of_int w.publishes /. w.wall_s);
  set "sim_link_ms_per_request" "ms" (sim_link_ms w);
  set "publish_p50_ms" "ms" (median w.lat);
  set "publish_p90_ms" "ms" (percentile w.lat 0.9);
  set "update_visible_p50_ms" "ms" (median p.updates);
  set "update_visible_p90_ms" "ms" (percentile p.updates 0.9);
  set "revoke_visible_p50_ms" "ms" (median p.revokes);
  set "top_heap_mb" "MB" (top_heap_mb ());
  Printf.eprintf "dissem_fanout: %d publishes, %d views in %.2f s, %d updates, %d revocations\n%!"
    w.publishes w.views w.wall_s (List.length p.updates) (List.length p.revokes)

let run_traced opts =
  let fx, _ = repeat_setup 1 (build opts) in
  let half = opts.seconds /. 2.0 in
  (* Each publish of the prefix is replayed inside the traced loop, right
     after it, so layer times and the op wall share the host's speed: on
     a twin gateway with the registry on. *)
  let twin_obs = Sdds_obs.Obs.create ~tracing:false () in
  let twin = Card.create ~obs:twin_obs ~profile:Cost.fleet ~subject:gateway fx.gw in
  let r = Replay.create () and first_evals = ref (-1) in
  let replay seg =
    (match
       Card.install_wrapped_key twin ~doc_id:seg.id
         ~wrapped:(Option.get (Store.get_grant fx.store ~doc_id:seg.id ~subject:gateway))
     with
    | Ok () -> ()
    | Error e -> fail ("twin grant: " ^ F.card_error_string e));
    let subscribers =
      Array.to_list
        (Array.map
           (fun s -> (s, Option.get (Store.get_rules fx.store ~doc_id:seg.id ~subject:s)))
           seg.subs)
    in
    let reg = twin_obs.Sdds_obs.Obs.metrics in
    let e0 = Sdds_obs.Obs.Metrics.counter_value reg "dissem.evaluations" in
    let _, report, stats = Replay.publish r ~twin seg.published ~key:seg.key ~subscribers in
    let de = Sdds_obs.Obs.Metrics.counter_value reg "dissem.evaluations" - e0 in
    reconcile "dissem.evaluations = Fanout.stats.evaluations" de
      report.Card.sharing.Fanout.evaluations;
    reconcile "replayed Fanout.run evaluations = twin evaluations" stats.Fanout.evaluations
      report.Card.sharing.Fanout.evaluations;
    if !first_evals < 0 then first_evals := report.Card.sharing.Fanout.evaluations
  in
  start_tracing ();
  let g0 = gc_mark () in
  let w = new_window () in
  loop ~on_prefix:replay opts fx w ~seconds:half ~final:true ~corrupt:opts.corrupt_reference;
  let minor, majors = gc_since g0 in
  stop_tracing ();
  reconcile "deliver stats evaluations = twin evaluations" w.stats_evals !first_evals;
  det_f "sim_link_ms_per_request" (sim_link_ms w);
  let traced_wall_per_op = w.wall_s *. 1000.0 /. float_of_int w.publishes in
  let deliver_ms = per_op (span_total_ms "client.deliver") w.publishes in
  let untraced = new_window () in
  loop opts fx untraced ~seconds:half ~final:true ~corrupt:false;
  let untraced_wall_per_op = untraced.wall_s *. 1000.0 /. float_of_int untraced.publishes in
  let verify_ms, _ = Replay.rsa_costs fx.publisher fx.segs.(0).published in
  Replay.emit r ~verify_ms ~ops_per_replay:1.0;
  let rows = Replay.rows r ~verify_ms ~ops_per_replay:1.0 in
  let term = Layers.get "core.reassemble_ms" +. Layers.get "xml.serialize_ms" in
  set "soe.card_busy_ms" "ms/op" (deliver_ms -. term);
  set "proxy.self_ms" "ms/op" (traced_wall_per_op -. (deliver_ms -. term));
  set "soe.prepared_hit_ratio" "ratio" 0.0;
  set "soe.apdu_frames" "frames/op" (per_op (float_of_int w.prefix_frames) (prefix_ops opts));
  set "soe.apdu_bytes" "bytes/op" (per_op (float_of_int w.prefix_bytes) (prefix_ops opts));
  (* the gateway unwraps each segment key once, in set-up *)
  set "crypto.rsa_private_ops" "ops/op" 0.0;
  set "crypto.rsa_private_ms" "ms/op" 0.0;
  set "fleet.affinity_hit_ratio" "ratio" 0.0;
  set "fleet.queue_peak" "count" 0.0;
  set "pool.warm_setup_ratio" "ratio" 0.0;
  set "pool.retries" "count" 0.0;
  set "gc.minor_words_per_op" "words/op" (per_op minor w.publishes);
  set "gc.major_collections" "count" (float_of_int majors);
  set "trace.overhead_pct" "%" (((traced_wall_per_op /. untraced_wall_per_op) -. 1.0) *. 100.0);
  Layers.finish ~workload:"dissem_fanout" ~ops:w.publishes ~wall_per_op:traced_wall_per_op ~rows
