(* The traced run: one process replays a workload's seeded request
   stream through each layer's public function, in the order the
   daemon calls them (client encode, request decode, validation, cache
   key, cache lookup, objective build, tape compile, solve, shape-seed
   polish, PSA, reply encode, client decode), and times every call.

   The allocation step mirrors [Core.Pipeline.solve_cached] on one
   cache; a twin cache fed the same requests through [Pipeline.plan]
   itself gives [pipeline.plan_ms], against which the layer times must
   add up.  Both caches see the same requests in the same order, so
   they stay in the same state. *)

module G = Mdg.Graph
module P = Costmodel.Params
module Cache = Core.Plan_cache
module Proto = Server.Protocol

(* Seconds spent in each layer inside the pipeline, for one request. *)
type layers = {
  mutable normalise : float;
  mutable key : float;
  mutable lookup : float;
  mutable objective : float;
  mutable compile : float;
  mutable solve : float;
  mutable shape_seed : float;
  mutable psa : float;
  mutable solves : int;  (* cold plus seeded solver runs *)
}

type sample = {
  encode : float;
  decode : float;
  layers : layers;
  plan : float;  (* [Pipeline.plan] on the twin cache *)
  reply_encode : float;
  client_decode : float;
  request_bytes : int;
  reply_bytes : int;
}

type state = {
  cache : Cache.t;
  twin : Core.Pipeline.config;
  mutable iterations : int list;  (* per cold or seeded solve *)
  mutable stages : int list;
  mutable diverged : int;  (* requests where the mirror and the pipeline disagree *)
}

let create () =
  {
    cache = Cache.create ();
    twin = Core.Pipeline.(default_config |> with_cache (Cache.create ()));
    iterations = [];
    stages = [];
    diverged = 0;
  }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* [Pipeline.validate]: normalisation plus the calibration lookup of
   every node's kernel. *)
let validate params g =
  let g = G.normalise g in
  Array.iter (fun (nd : G.node) -> ignore (P.processing params nd.kernel)) (G.nodes g);
  g

(* The cache path of [Pipeline.solve_cached], with the solver-side
   calls timed separately; whatever else the allocation step spends
   (warm and tape lookups, singleflight, storing the result) is the
   cache's own time. *)
let allocate st (l : layers) ~params ~procs g key =
  let solve ?x0 compiled =
    let a = Core.Allocation.solve ~engine:(`Precompiled compiled) ?x0 params g ~procs in
    l.solves <- l.solves + 1;
    st.iterations <- a.solver.iterations :: st.iterations;
    st.stages <- a.solver.stages :: st.stages;
    a
  in
  let run () =
    match Cache.warm st.cache key with
    | Some (Cache.Exact a) ->
        ignore (Cache.tape_cached st.cache key);
        a
    | hit ->
        fst
          (Cache.coalesce st.cache key ~solve:(fun () ->
               let compiled, _ =
                 Cache.tape st.cache key ~compile:(fun () ->
                     let e, t = timed (fun () -> Core.Allocation.objective params g ~procs) in
                     l.objective <- t;
                     let c, t = timed (fun () -> Convex.Solver.compile e) in
                     l.compile <- t;
                     c)
               in
               let cold, t = timed (fun () -> solve compiled) in
               l.solve <- t;
               let best =
                 match hit with
                 | Some (Cache.Seed seed) ->
                     let best, t =
                       timed (fun () ->
                           if Convex.Solver.eval_compiled compiled seed < cold.phi then
                             let seeded = solve ~x0:seed compiled in
                             if seeded.phi < cold.phi then seeded else cold
                           else cold)
                     in
                     l.shape_seed <- t;
                     best
                 | _ -> cold
               in
               Cache.store_warm st.cache key best;
               best))
  in
  let a, total = timed run in
  l.lookup <- total -. (l.objective +. l.compile +. l.solve +. l.shape_seed);
  a

(* The pipeline's own steps on the mirror cache: validation, key,
   allocation, PSA. *)
let mirror st ~params ~procs graph =
  let l =
    {
      normalise = 0.0;
      key = 0.0;
      lookup = 0.0;
      objective = 0.0;
      compile = 0.0;
      solve = 0.0;
      shape_seed = 0.0;
      psa = 0.0;
      solves = 0;
    }
  in
  let g, t = timed (fun () -> validate params graph) in
  l.normalise <- t;
  let key, t =
    timed (fun () ->
        { Cache.graph_hash = G.structural_hash g; fingerprint = P.fingerprint params; procs })
  in
  l.key <- t;
  let alloc = allocate st l ~params ~procs g key in
  let psa, t = timed (fun () -> Core.Psa.schedule params g ~procs ~alloc:alloc.alloc) in
  l.psa <- t;
  ((alloc.phi, psa.t_psa), l)

let step st ~id (r : Workload.req) =
  let line, encode =
    timed (fun () ->
        Server.Json.to_string
          (Proto.encode_plan_request ~id:(Server.Json.int id) ~params:r.params r.graph
             ~procs:r.procs))
  in
  let decoded, decode = timed (fun () -> Proto.decode_request line) in
  let req =
    match decoded with
    | Ok (_, Proto.Plan p) -> p
    | Ok _ | Error _ -> failwith "replay: request line did not decode as a plan"
  in
  let params = Option.get req.params and procs = req.procs in
  let twin () =
    match
      timed (fun () ->
          Core.Pipeline.plan ~config:st.twin (Core.Pipeline.request params req.graph ~procs))
    with
    | Ok p, t -> (p, t)
    | Error e, _ -> failwith (Core.Pipeline.error_to_string e)
  in
  (* Whichever of the two runs second finds the request's data in the
     processor caches; alternating the order keeps that advantage off
     both sides of the comparison. *)
  let (plan, plan_t), (mirrored, layers) =
    if id land 1 = 0 then
      let t = twin () in
      (t, mirror st ~params ~procs req.graph)
    else
      let m = mirror st ~params ~procs req.graph in
      (twin (), m)
  in
  if mirrored <> (plan.allocation.phi, plan.psa.t_psa) then st.diverged <- st.diverged + 1;
  let reply, reply_encode =
    timed (fun () -> Server.Json.to_string (Proto.plan_reply ~id:(Server.Json.int id) plan))
  in
  let _, client_decode = timed (fun () -> Proto.decode_reply reply) in
  {
    encode;
    decode;
    layers;
    plan = plan_t;
    reply_encode;
    client_decode;
    request_bytes = String.length line;
    reply_bytes = String.length reply;
  }

(* Replay the warm-up requests untimed, then the stream until
   [seconds] have passed or it runs out; one sample per timed
   request. *)
let run (w : Workload.t) ~seconds =
  let st = create () in
  Array.iteri (fun i r -> ignore (step st ~id:i r)) w.warmup;
  let deadline = now () +. seconds in
  let samples = ref [] in
  let i = ref 0 in
  while !i < Array.length w.stream && now () < deadline do
    samples := step st ~id:!i w.stream.(!i) :: !samples;
    incr i
  done;
  (st, Array.of_list (List.rev !samples))
