(* Reply checks.  Each property is computed from the request's own
   inputs (its graph, constants and machine size) and the paper's
   bounds, never from a recorded copy of an earlier output, so a
   change that alters plans is judged by what a plan must satisfy. *)

module G = Mdg.Graph
module S = Server.Protocol

let is_pow2 n = n >= 1 && n land (n - 1) = 0

(* Lower bounds on Φ.  With p_i >= 1 processors a node's processing
   time is at least alpha_i * tau_i and its processor-time product at
   least tau_i, so Φ = max(A_p, C_p) is at least
   max(Σ tau_i / p, the longest path weighted by alpha_i * tau_i). *)
let phi_lower_bound (r : Workload.req) =
  let g = G.normalise r.graph in
  let n = G.num_nodes g in
  let amdahl =
    Array.map
      (fun (nd : G.node) ->
        let pr = Costmodel.Params.processing r.params nd.kernel in
        (pr.alpha, pr.tau))
      (G.nodes g)
  in
  let work = Array.fold_left (fun acc (_, tau) -> acc +. tau) 0.0 amdahl in
  let finish = Array.make n nan in
  let rec path i =
    if Float.is_nan finish.(i) then begin
      let alpha, tau = amdahl.(i) in
      let before =
        List.fold_left (fun acc (e : G.edge) -> Float.max acc (path e.src)) 0.0 (G.preds g i)
      in
      finish.(i) <- before +. (alpha *. tau)
    end;
    finish.(i)
  in
  let longest = ref 0.0 in
  for i = 0 to n - 1 do
    longest := Float.max !longest (path i)
  done;
  (n, Float.max (work /. float_of_int r.procs) !longest)

(* Theorem 3: T_psa <= (1 + p/(p-PB+1)) (3/2)^2 (p/PB)^2 Φ. *)
let theorem3 ~procs ~pb =
  let p = float_of_int procs and b = float_of_int pb in
  (1.0 +. (p /. (p -. b +. 1.0))) *. 2.25 *. Float.pow (p /. b) 2.0

(* Φ is a smoothed-then-polished optimum: allow it to exceed the
   schedule it predicts by the solver's relative tolerance only. *)
let solver_tol = 1e-6

let expect_name : Workload.expect -> string = function
  | Exact_hit -> "hit"
  | Miss -> "miss"
  | Shape_hit -> "shape_hit"

(* [lower] is [phi_lower_bound r], passed in so that a request sent
   many times is bounded once. *)
let reply (r : Workload.req) ~lower:(nodes, lb) ~expect (s : S.plan_summary) =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if s.nodes <> nodes then fail "nodes %d, request has %d" s.nodes nodes
  else if s.procs <> r.procs then fail "procs %d, request has %d" s.procs r.procs
  else if Array.length s.alloc <> nodes || Array.length s.rounded_alloc <> nodes then
    fail "allocation arrays of length %d/%d for %d nodes" (Array.length s.alloc)
      (Array.length s.rounded_alloc) nodes
  else if
    Array.exists (fun a -> not (a >= 1.0 -. 1e-9 && a <= float_of_int r.procs +. 1e-9)) s.alloc
  then fail "an allocation lies outside [1, %d]" r.procs
  else if not (is_pow2 s.pb && s.pb <= r.procs) then fail "pb %d is not a power of two <= procs" s.pb
  else if Array.exists (fun a -> not (is_pow2 a && a <= s.pb)) s.rounded_alloc then
    fail "a rounded allocation is not a power of two <= pb %d" s.pb
  else if not (s.phi >= lb *. (1.0 -. 1e-12)) then fail "phi %.9g below its lower bound %.9g" s.phi lb
  else if not (s.phi <= s.t_psa *. (1.0 +. solver_tol)) then
    fail "phi %.9g above t_psa %.9g" s.phi s.t_psa
  else if not (s.t_psa <= theorem3 ~procs:r.procs ~pb:s.pb *. s.phi) then
    fail "t_psa %.9g above the Theorem 3 bound" s.t_psa
  else if s.warm_cache <> expect_name expect then
    fail "cache reported warm=%s, the workload expects %s" s.warm_cache (expect_name expect)
  else Ok ()

(* Replay one request through an uncached, in-process pipeline and
   compare Φ with the served plan. *)
let replay (w : Workload.t) (r : Workload.req) (s : S.plan_summary) =
  match Core.Pipeline.plan (Core.Pipeline.request r.params r.graph ~procs:r.procs) with
  | Error e -> Error ("uncached replay failed: " ^ Core.Pipeline.error_to_string e)
  | Ok p -> (
      let cold = Core.Pipeline.phi p in
      match w.replay with
      | Same when s.phi <> cold ->
          Error (Printf.sprintf "served phi %.17g, uncached replay %.17g" s.phi cold)
      | Keep_better when s.phi > cold *. (1.0 +. 1e-5) ->
          Error (Printf.sprintf "served phi %.17g worse than cold %.17g" s.phi cold)
      | Same | Keep_better -> Ok ())
