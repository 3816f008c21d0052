(* Shared machinery of the end-to-end benchmark: wall timing, percentile
   summaries, the bench-side span recorder, per-layer accumulators and the
   run-wide failure accounting every workload reports into. *)

module Obs = Sdds_obs.Obs

let now () = Unix.gettimeofday ()
let ms_since t0 = (now () -. t0) *. 1000.0

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

type opts = {
  seed : int;
  seconds : float;  (* length of the timed loop *)
  trace : bool;
  tiny : bool;  (* self-test size: small fixtures, short loops *)
  corrupt_reference : bool;
      (* self-test only: perturb one reference so the check must fire *)
}

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile over an unsorted sample; [nan] when empty. *)
let percentile xs p =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile xs 0.5

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per_op x ops = if ops = 0 then 0.0 else x /. float_of_int ops

(* ------------------------------------------------------------------ *)
(* Run accounting                                                      *)
(* ------------------------------------------------------------------ *)

(* Every operation the benchmark issues (timed loop, policy probes,
   reconciliation) lands here; a reference mismatch or a failed
   reconciliation is a failed operation, never repaired or skipped. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* first few failure reasons, for stderr *)
}

let tally = { attempted = 0; failed = 0; notes = [] }

let fail why =
  tally.failed <- tally.failed + 1;
  if List.length tally.notes < 8 then tally.notes <- why :: tally.notes

let attempt ok why =
  tally.attempted <- tally.attempted + 1;
  if not ok then fail why

(* A reconciliation identity checked once per run: counted as one
   attempted operation. *)
let reconcile name a b =
  attempt (a = b) (Printf.sprintf "reconcile %s: %d <> %d" name a b)

(* Reference checks (and traced-run replays) run outside the timed
   region: the caller subtracts their duration from the loop's wall
   time, and [gc_since] their allocation from the loop's. *)
let excluded_s = ref 0.0
let excluded_words = ref 0.0

let checked f =
  let t0 = now () and w0 = Gc.minor_words () in
  let r = f () in
  excluded_s := !excluded_s +. (now () -. t0);
  excluded_words := !excluded_words +. (Gc.minor_words () -. w0);
  r

(* ------------------------------------------------------------------ *)
(* Bench-side spans                                                    *)
(* ------------------------------------------------------------------ *)

(* Spans go to an [Obs.Tracer] on the system clock (so the Chrome export
   opens in Perfetto like [sdds trace] output) and, in parallel, into
   per-name self-time accumulators: a span's self time is its duration
   minus the time its child spans cover. With tracing off the recorder
   is a no-op and [span] costs one branch. *)
type acc = { mutable self_ns : float; mutable total_ns : float }

type recorder = {
  tracer : Obs.Tracer.t;
  on : bool;
  accs : (string, acc) Hashtbl.t;
  mutable stack : float ref list;  (* child time covered, per open span *)
}

let recorder = ref { tracer = Obs.Tracer.disabled; on = false; accs = Hashtbl.create 16; stack = [] }

let start_tracing () =
  recorder :=
    {
      tracer = Obs.Tracer.create ~clock:Obs.Clock.system ();
      on = true;
      accs = Hashtbl.create 16;
      stack = [];
    }

let stop_tracing () = recorder := { !recorder with on = false }

let acc name =
  let r = !recorder in
  match Hashtbl.find_opt r.accs name with
  | Some a -> a
  | None ->
      let a = { self_ns = 0.0; total_ns = 0.0 } in
      Hashtbl.replace r.accs name a;
      a

let span name f =
  let r = !recorder in
  if not r.on then f ()
  else begin
    let id = Obs.Tracer.start r.tracer name in
    let child = ref 0.0 in
    let t0 = now () in
    r.stack <- child :: r.stack;
    let finish () =
      let dur = (now () -. t0) *. 1e9 in
      (match r.stack with _ :: rest -> r.stack <- rest | [] -> ());
      (match r.stack with
      | parent_child :: _ -> parent_child := !parent_child +. dur
      | [] -> ());
      let a = acc name in
      a.total_ns <- a.total_ns +. dur;
      a.self_ns <- a.self_ns +. (dur -. !child);
      Obs.Tracer.stop r.tracer id
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* (span name, self ms per op), for every span recorded. *)
let span_self_per_op ops =
  Hashtbl.fold (fun name a acc -> (name, per_op (a.self_ns /. 1e6) ops) :: acc) !recorder.accs []
  |> List.sort compare

let span_total_ms name =
  match Hashtbl.find_opt !recorder.accs name with
  | Some a -> a.total_ns /. 1e6
  | None -> 0.0

(* Time [f] unconditionally (set-up phases, replays); returns ms. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, ms_since t0)

(* Fastest wall time of [reps] runs of [f] (replay of a layer call): host
   noise only slows a run down, so the fastest one is the closest to the
   layer's own cost, and the replayed rows of the attribution table err
   low rather than claim more than the op wall. *)
let replay_ms ?(reps = 3) f =
  let samples = List.init reps (fun _ -> snd (timed f)) in
  List.fold_left Float.min Float.infinity samples

let write_trace path =
  let r = !recorder in
  let oc = open_out_bin path in
  output_string oc (Obs.Tracer.to_chrome r.tracer);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* Metric name -> (value, unit). Workloads set every metric they measure;
   main.ml emits exactly the declared set. *)
let metrics : (string, float * string) Hashtbl.t = Hashtbl.create 64
let set name unit v = Hashtbl.replace metrics name (v, unit)

(* Deterministic values (counts, simulated ms) the self-test compares
   across two runs of one seed; written to stderr as one JSON line. *)
let deterministic : (string * string) list ref = ref []
let det name v = deterministic := (name, v) :: !deterministic
let det_f name v = det name (Printf.sprintf "%.6f" v)
let det_i name v = det name (string_of_int v)

(* Gc counters over a window, less the minor words of excluded work. *)
type gc_mark = { minor : float; major : int; excluded : float }

let gc_mark () =
  {
    minor = Gc.minor_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
    excluded = !excluded_words;
  }

let gc_since m =
  ( Gc.minor_words () -. m.minor -. (!excluded_words -. m.excluded),
    (Gc.quick_stat ()).Gc.major_collections - m.major )

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* Set-up repetitions behind [setup_s]: one at the self-test size. *)
let setup_reps opts = if opts.tiny then 1 else 2

(* Repeat a whole set-up [reps] times and keep the last fixture; the
   reported set-up time is the median. *)
let repeat_setup reps build =
  let times = ref [] and last = ref None in
  for _ = 1 to max 1 reps do
    (* drop the previous fixture first so repetitions start alike *)
    last := None;
    Gc.full_major ();
    let fx, ms = timed build in
    times := ms :: !times;
    last := Some fx
  done;
  (* the timed loop starts from a collected heap *)
  Gc.full_major ();
  (Option.get !last, median !times /. 1000.0)
