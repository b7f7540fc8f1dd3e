(* The four traffic shapes.  Every input is a function of the workload
   name and the --seed argument alone; the server only ever sees the
   generated requests. *)

module G = Mdg.Graph
module P = Costmodel.Params

type req = { graph : G.t; params : P.t; procs : int }

(* What the cache must report for every timed request of a workload:
   the benchmark fails a run whose traffic did not take the path the
   workload is meant to measure. *)
type expect = Exact_hit | Miss | Shape_hit

(* How the sampled replies are replayed through an uncached
   in-process [Pipeline.plan]:
   - [Same]: a cold miss is deterministic in the request, so the served
     Φ is the uncached Φ;
   - [Keep_better]: a shape hit may improve on the cold optimum, never
     worsen it.  An exact hit returns whatever the first solve of its
     key produced, and when that solve was itself a shape hit (every
     variant after the first in the warm-up) the same guarantee is all
     that holds. *)
type replay = Same | Keep_better

type t = {
  name : string;
  warmup : req array;  (* sent during set-up, before the timed window *)
  stream : req array;  (* the timed requests, in order; no wrap-around *)
  guard : req array;  (* plan-quality list, sent after the window *)
  expect : expect;
  replay : replay;
}

let names = [ "exact-hits"; "cold-shapes"; "param-drift"; "big-machine" ]

(* ------------------------------------------------------------------ *)
(* Cost constants                                                      *)
(* ------------------------------------------------------------------ *)

(* Table 1 of the paper gives MatAdd(64) and MatMul(64); the Strassen
   graphs also use other sizes, so each kernel's serial time is the
   table entry scaled by its work (n^2 for init/add, n^3 for
   multiply).  Synthetic workgen kernels carry their own Amdahl
   pair. *)
let register_kernels params kernels =
  List.iter
    (fun (k : G.kernel) ->
      let scale n e = Float.pow (float_of_int n /. 64.0) e in
      match k with
      | Matrix_init n | Matrix_add n ->
          P.set_processing params k { alpha = 0.067; tau = 3.73e-3 *. scale n 2.0 }
      | Matrix_multiply n ->
          P.set_processing params k { alpha = 0.121; tau = 0.29847 *. scale n 3.0 }
      | Synthetic _ | Dummy -> ())
    kernels

let uniform rng lo hi = lo +. Random.State.float rng (hi -. lo)

(* The paper's CM-5 transfer constants (Table 2), each of the four
   nonzero ones scaled by its own factor.  [t_n] is 0.0 in Table 2, so
   scaling it would change nothing: every perturbation below acts on
   the startup and per-byte send/receive costs. *)
let transfer_scaled (f : float array) =
  let tf = P.cm5_transfer in
  {
    tf with
    P.t_ss = tf.t_ss *. f.(0);
    t_ps = tf.t_ps *. f.(1);
    t_sr = tf.t_sr *. f.(2);
    t_pr = tf.t_pr *. f.(3);
  }

let params_of ~kernels f =
  let p = P.make ~transfer:(transfer_scaled f) in
  register_kernels p kernels;
  p

(* Each run's base constants sit within 1e-6 of Table 2, drawn from the
   seed: plan-quality figures then differ in their last digits from
   seed to seed (a figure that never changes would hide a broken
   measurement) while the plans themselves stay those of Table 2. *)
let jitter = 1e-6

let base_factors rng = Array.init 4 (fun _ -> 1.0 +. uniform rng (-.jitter) jitter)

(* ------------------------------------------------------------------ *)
(* Graphs                                                              *)
(* ------------------------------------------------------------------ *)

(* Workgen specs for the synthetic traffic (Dinh & Simhadri's
   nested-dataflow class): 27, at most 38, at most 38 and at most 81
   nodes after normalisation; the early-cutoff probability makes the
   recursion trees irregular. *)
let workgen_specs =
  [|
    "depth=2,branch=3,wiring=0.3";
    "depth=2,branch=4,cutoff=0.1,wiring=0.3";
    "depth=3,branch=2,cutoff=0.1,wiring=0.3";
    "depth=3,branch=3,cutoff=0.1,wiring=0.3";
  |]

let workgen spec_index ~seed =
  Workgen.generate (Workgen.spec_of_string_exn workgen_specs.(spec_index)) ~seed

(* Fixed shapes: the same graphs in every run, whatever the seed. *)
let fixed_shapes ~first_seed =
  Array.init 8 (fun i -> workgen (i mod 4) ~seed:(first_seed + i))

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The timed stream holds [per_second * seconds] requests, several
   times what a run gets through; a run that exhausts it stops early
   (and says so) rather than repeat a request whose novelty the
   workload depends on. *)
let stream_len ~per_second ~seconds = per_second * max 1 seconds

(* Constant variants of one graph: variant [i] adds [i] % to the send
   startup cost, so the variants have distinct cache keys. *)
let variants ~base ~kernels n =
  Array.init n (fun i ->
      let f = Array.copy base in
      f.(0) <- f.(0) *. (1.0 +. (0.01 *. float_of_int i));
      params_of ~kernels f)

let picks rng ~len (reqs : req array) =
  Array.init len (fun _ -> reqs.(Random.State.int rng (Array.length reqs)))

(* Every timed request repeats one of [n] constant variants of [graph],
   all solved during warm-up. *)
let pre_solved name rng ~seconds ~graph ~kernels ~procs ~n ~per_second =
  let reqs =
    Array.map (fun params -> { graph; params; procs }) (variants ~base:(base_factors rng) ~kernels n)
  in
  {
    name;
    warmup = reqs;
    stream = picks rng ~len:(stream_len ~per_second ~seconds) reqs;
    guard = reqs;
    expect = Exact_hit;
    replay = Keep_better;
  }

(* Fresh shapes: workgen seeds are drawn from disjoint ranges for the
   warm-up, the stream and the guard, so no key repeats within a run.
   The stream takes the four specs in turn: their plans differ in cost
   by several times, and a seeded draw of the spec would let each slice
   of the window hold its own mix of cheap and dear shapes. *)
let cold_shapes rng ~seconds ~seed =
  let len = stream_len ~per_second:500 ~seconds in
  let params = params_of ~kernels:[] (base_factors rng) in
  let shape i ~ws = { graph = workgen (i mod 4) ~seed:ws; params; procs = 16 } in
  let first = 1_000_000 * (1 + (abs seed mod 1000)) in
  {
    name = "cold-shapes";
    warmup = Array.init 8 (fun i -> shape i ~ws:(first + i));
    stream =
      Array.init len (fun i -> shape (i mod 4) ~ws:(first + 1000 + i));
    guard =
      Array.map (fun graph -> { graph; params; procs = 16 }) (fixed_shapes ~first_seed:201);
    expect = Miss;
    replay = Same;
  }

(* Eight fixed shapes; every timed request draws each nonzero transfer
   constant afresh within a factor of 1.25 of the base, so its
   fingerprint is new while its shape is known. *)
let param_drift rng ~seconds =
  let len = stream_len ~per_second:500 ~seconds in
  let shapes = fixed_shapes ~first_seed:101 in
  let base = base_factors rng in
  let drifted () =
    params_of ~kernels:[]
      (Array.map (fun b -> b *. exp (uniform rng (-0.223) 0.223)) base)
  in
  let near_base () =
    params_of ~kernels:[]
      (Array.map (fun b -> b *. (1.0 +. uniform rng (-.jitter) jitter)) base)
  in
  let params = params_of ~kernels:[] base in
  {
    name = "param-drift";
    warmup = Array.map (fun graph -> { graph; params; procs = 16 }) shapes;
    stream =
      Array.init len (fun _ ->
          { graph = shapes.(Random.State.int rng 8); params = drifted (); procs = 16 });
    guard = Array.map (fun graph -> { graph; params = near_base (); procs = 16 }) shapes;
    expect = Shape_hit;
    replay = Keep_better;
  }

let make name ~seed ~seconds =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  match name with
  | "exact-hits" ->
      (* strassen2:128, 204 nodes *)
      pre_solved name rng ~seconds
        ~graph:(G.normalise (Kernels.Strassen_mdg.graph_recursive ~levels:2 ~n:128))
        ~kernels:(Kernels.Strassen_mdg.kernels_recursive ~levels:2 ~n:128)
        ~procs:64 ~n:4 ~per_second:2000
  | "cold-shapes" -> cold_shapes rng ~seconds ~seed
  | "param-drift" -> param_drift rng ~seconds
  | "big-machine" ->
      (* strassen:1024, 29 nodes; one machine size keeps the latency
         distribution unimodal *)
      pre_solved name rng ~seconds
        ~graph:(fst (Kernels.Strassen_mdg.graph ~n:1024 ()))
        ~kernels:(Kernels.Strassen_mdg.kernels ~n:1024)
        ~procs:2048 ~n:2 ~per_second:200
  | other ->
      invalid_arg
        (Printf.sprintf "unknown workload %S (%s)" other (String.concat "|" names))
