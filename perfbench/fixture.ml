(* Fixture building blocks shared by the workloads: seeded keys, the
   DSP-side calls (each wrapped in a bench span and timed), and the
   reference views every operation is checked against. *)

open Common
module Rsa = Sdds_crypto.Rsa
module Drbg = Sdds_crypto.Drbg
module Rng = Sdds_util.Rng
module Publish = Sdds_dsp.Publish
module Store = Sdds_dsp.Store
module Rule = Sdds_core.Rule
module Oracle = Sdds_core.Oracle
module Serializer = Sdds_xml.Serializer
module Card = Sdds_soe.Card

let key_bits = 512

(* Host timings of the DSP-side calls, across set-up and the timed loop. *)
let keygen_ms = ref []
let publish_ms = ref []
let encrypt_rules_ms = ref []
let rotate_ms = ref []

(* RSA private operations the benchmark's own calls ran (signatures of
   documents and rule blobs); card-side unwraps are counted by the
   workloads. *)
let rsa_signs = ref 0

let keygen drbg =
  let kp, ms = timed (fun () -> span "crypto.keygen" (fun () -> Rsa.generate drbg ~bits:key_bits)) in
  keygen_ms := ms :: !keygen_ms;
  kp

let publish drbg ~publisher ~doc_id doc =
  let r, ms =
    timed (fun () -> span "dsp.publish" (fun () -> Publish.publish drbg ~publisher ~doc_id doc))
  in
  incr rsa_signs;
  publish_ms := ms :: !publish_ms;
  r

let encrypt_rules drbg ~publisher ~doc_key ~doc_id ~subject ~version rules =
  let r, ms =
    timed (fun () ->
        span "dsp.encrypt_rules" (fun () ->
            Publish.encrypt_rules_for drbg ~publisher ~doc_key ~doc_id ~subject ~version rules))
  in
  incr rsa_signs;
  encrypt_rules_ms := ms :: !encrypt_rules_ms;
  r

let rotate drbg ~publisher ~old_key published =
  let r, ms =
    timed (fun () -> span "dsp.rotate" (fun () -> Publish.rotate drbg ~publisher ~old_key published))
  in
  incr rsa_signs;
  rotate_ms := ms :: !rotate_ms;
  r

let grant drbg ~doc_key ~doc_id ~recipient =
  span "dsp.grant" (fun () -> Publish.grant drbg ~doc_key ~doc_id ~recipient)

(* The reference: the declarative oracle's view, serialized exactly as
   the proxy serializes the views it returns. *)
let oracle_xml ?query ~rules doc =
  let query = Option.map Sdds_xpath.Parser.parse query in
  Option.map (Serializer.to_string ~indent:true) (Oracle.authorized_view ?query ~rules doc)

let xml_equal (a : string option) (b : string option) = Option.equal String.equal a b

(* Self-test hook: a deliberately wrong reference for one key. *)
let corrupt (x : string option) =
  match x with Some s -> Some (s ^ "<!-- perturbed -->") | None -> Some "<perturbed/>"

let drbg_for ~seed label = Drbg.create ~seed:(Printf.sprintf "perfbench|%s|%d" label seed)

(* A deck of [size] draws whose composition follows [weights] exactly
   (largest-remainder rounding), dealt in a seeded shuffled order and
   reshuffled on every pass. Every seed then exercises the same mix, so
   run-to-run spread comes from the order and the contents, not from
   sampling noise in the mix itself. *)
type 'a deck = { cards : 'a array; rng : Rng.t; mutable next : int }

let deck rng ~size (weights : ('a * float) list) =
  let total = List.fold_left (fun a (_, w) -> a +. w) 0.0 weights in
  let exact = List.map (fun (x, w) -> (x, w /. total *. float_of_int size)) weights in
  let base = List.map (fun (x, e) -> (x, int_of_float e, e -. Float.of_int (int_of_float e))) exact in
  let short = size - List.fold_left (fun a (_, n, _) -> a + n) 0 base in
  let by_rem = List.stable_sort (fun (_, _, a) (_, _, b) -> compare b a) base in
  let counts = List.mapi (fun i (x, n, _) -> (x, if i < short then n + 1 else n)) by_rem in
  let cards = Array.of_list (List.concat_map (fun (x, n) -> List.init n (fun _ -> x)) counts) in
  Rng.shuffle rng cards;
  { cards; rng; next = 0 }

let deal d =
  if d.next >= Array.length d.cards then begin
    Rng.shuffle d.rng d.cards;
    d.next <- 0
  end;
  let x = d.cards.(d.next) in
  d.next <- d.next + 1;
  x

let card_error_string e = Format.asprintf "%a" Card.pp_error e
