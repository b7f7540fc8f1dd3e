(* Plan-server benchmark.

     planbench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1

   Drives the real [paradigm serve] binary (PATH) from this separate
   client process over a closed loop: one connection, which sends its
   next plan request only once the previous reply has been decoded.
   Inputs are generated before the server starts; client encode and
   decode lie inside each request's latency.  Server CPU and peak RSS
   are read from /proc/<pid>.  Every reply is checked (see check.ml).

   --trace 0 prints the end-to-end metrics; --trace 1 spends half the
   run on the same end-to-end loop (for the server's cache counters and
   the client p50) and half on the in-process layer replay (replay.ml),
   and prints the per-layer metrics.  The last stdout line is the
   result object. *)

module Client = Server.Client
module Proto = Server.Protocol
module Json = Server.Json

let now = Unix.gettimeofday

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile. *)
let percentile (xs : float array) p =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let median xs = percentile xs 50.0

let geomean xs =
  exp (Array.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (Array.length xs))

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let plan_exn c (r : Workload.req) =
  match Client.plan ~params:r.params c r.graph ~procs:r.procs with
  | Ok s -> s
  | Error msg -> failwith ("plan request outside the timed window failed: " ^ msg)

(* From spawning the server until it is ready for the timed window:
   bound, connected, and every warm-up request answered.  The load is
   one closed-loop connection: run.py puts this process and the server
   on a single CPU, where a second caller would only wait for the
   first one's plan. *)
let setup ~exe (w : Workload.t) =
  let t0 = now () in
  let srv = Server_proc.spawn exe in
  let conn = Client.connect ~port:srv.port () in
  let warm = Array.map (plan_exn conn) w.warmup in
  (srv, conn, warm, now () -. t0)

let close_all (srv, conn) =
  Client.close conn;
  Server_proc.stop srv

(* Set-up is repeated and its median reported: one spawn is too noisy
   to bound. *)
let setup_rounds = 5

let setup_median ~exe w =
  let times = ref [] in
  let rec go k =
    let srv, conn, warm, dt = setup ~exe w in
    times := dt :: !times;
    if k > 1 then begin
      close_all (srv, conn);
      go (k - 1)
    end
    else (srv, conn, warm)
  in
  let srv, conn, warm = go setup_rounds in
  (srv, conn, warm, median (Array.of_list !times))

(* ------------------------------------------------------------------ *)
(* Timed window                                                        *)
(* ------------------------------------------------------------------ *)

(* Growable float array: the caller records each latency without
   allocating a list cell. *)
module Floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.0; n = 0 }

  let push t x =
    if t.n = Array.length t.a then t.a <- Array.append t.a (Array.make t.n 0.0);
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.a 0 t.n
end

(* The timed window is cut into [slices] equal slices.  Each slice
   yields its own rate and CPU per plan, and throughput and CPU per
   plan are the medians over slices: a burst of stolen host time then
   spoils one or two slices, not the run's figure.  Latency
   percentiles are medians in the same way, over at most [slices]
   runs of consecutive answers, each of at least [chunk_min] so that
   its p90 has ten answers beyond it (big-machine's some 200 answers
   make one run). *)
let slices = 11

let chunk_min = 100

(* At the first answer past each slice boundary: its time, the
   server's CPU seconds so far and the plans answered so far. *)
type mark = { at : float; cpu : float; plans : int }

(* How often a traced run samples the server's queue depth. *)
let queue_sample_every = 50

(* How many served plans are replayed through an uncached pipeline,
   beyond the guard list: the first few of the stream. *)
let replay_sample = 4

type window = {
  latency : float array;  (* of each answered request *)
  marks : mark array;  (* oldest first; slice k lies between marks k and k + 1 *)
  kept : (int * Proto.plan_summary) list;  (* replies kept for the replay check *)
  errors : string list;  (* failed requests *)
  wrong : string list;  (* replies that failed a check *)
  attempted : int;
  queue_max : int;
  rss_mb : float;
  stats_before : Core.Plan_cache.stats;
  stats_after : Core.Plan_cache.stats;
}

let cache_stats c =
  match Client.stats c with Ok (s, _) -> s | Error m -> failwith ("stats op failed: " ^ m)

(* Each reply is checked as it arrives, outside its latency, and
   dropped: holding thousands of decoded plans would grow the client's
   heap and with it the GC work that shares the CPU with the server. *)
let timed_window ~seconds ~sample_queue ~verify srv c (w : Workload.t) =
  let stats_before = cache_stats c in
  let latency = Floats.create () in
  let kept = ref [] and errors = ref [] and wrong = ref [] and queue_max = ref 0 in
  let steal0 = Server_proc.host_steal () in
  let t0 = now () in
  let every = seconds /. float_of_int slices in
  let marks = ref [ { at = t0; cpu = Server_proc.cpu_seconds srv; plans = 0 } ] in
  let boundary = ref 1 in
  let mark at =
    if !boundary <= slices && at >= t0 +. (float_of_int !boundary *. every) then begin
      marks := { at; cpu = Server_proc.cpu_seconds srv; plans = latency.n } :: !marks;
      while !boundary <= slices && at >= t0 +. (float_of_int !boundary *. every) do
        incr boundary
      done
    end
  in
  let deadline = t0 +. seconds in
  let rec loop i =
    if i < Array.length w.stream && now () < deadline then begin
      let (r : Workload.req) = w.stream.(i) in
      let t1 = now () in
      let json = Proto.encode_plan_request ~id:(Json.int i) ~params:r.params r.graph ~procs:r.procs in
      let reply = Client.rpc c json in
      let t2 = now () in
      (match reply with
      | Ok (_, Proto.Plan_reply s) ->
          Floats.push latency (t2 -. t1);
          mark t2;
          (match verify r s with
          | Ok () -> ()
          | Error msg -> wrong := Printf.sprintf "request %d: %s" i msg :: !wrong);
          if i < replay_sample then kept := (i, s) :: !kept
      | Ok (_, Proto.Error_reply { kind; message; _ }) ->
          errors := Printf.sprintf "%s: %s" kind message :: !errors
      | Ok _ -> errors := "unexpected reply" :: !errors
      | Error msg -> errors := msg :: !errors);
      if sample_queue && (i + 1) mod queue_sample_every = 0 then begin
        match Client.stats c with
        | Ok (_, Some s) -> queue_max := max !queue_max s.queue_depth
        | Ok (_, None) | Error _ -> ()
      end;
      loop (i + 1)
    end
    else i
  in
  let attempted = loop 0 in
  note "planbench: the host stole %.1f %% of its CPU time during the window"
    (100.0 *. Server_proc.steal_share ~since:steal0 (Server_proc.host_steal ()));
  if attempted >= Array.length w.stream then
    note "planbench: the request pool ran out; the window was cut short";
  {
    latency = Floats.to_array latency;
    marks = Array.of_list (List.rev !marks);
    kept = !kept;
    errors = List.rev !errors;
    wrong = List.rev !wrong;
    attempted;
    queue_max = !queue_max;
    rss_mb = Server_proc.peak_rss_mb srv;
    stats_before;
    stats_after = cache_stats c;
  }

(* A latency percentile: the median of its values over an odd number
   of runs of consecutive answers, as many as [chunk_min] allows and at
   most [slices]. *)
let chunked_percentile lat p =
  let n = Array.length lat in
  let k = max 1 (min slices (n / chunk_min)) in
  let k = if k mod 2 = 0 then k - 1 else k in
  median (Array.init k (fun j -> percentile (Array.sub lat (j * n / k) (((j + 1) * n / k) - (j * n / k))) p))

(* Per slice: (plans per second, server CPU seconds per plan).  Each
   mark is taken at an answer, so every slice holds at least one; a
   request that outlasts a whole slice merges it into the next. *)
let slice_figures win =
  let m = win.marks in
  Array.init
    (Array.length m - 1)
    (fun k ->
      let a = m.(k) and b = m.(k + 1) in
      let plans = float_of_int (b.plans - a.plans) in
      (plans /. (b.at -. a.at), (b.cpu -. a.cpu) /. plans))

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* Every timed request of an exact-hit workload is one of its warm-up
   requests, and must be answered with the very plan the server
   produced for it then. *)
let verifier (w : Workload.t) ~warm =
  let bounds = Array.map Check.phi_lower_bound w.warmup in
  let warmup_index r =
    let rec find j = if j = Array.length w.warmup then None else if w.warmup.(j) == r then Some j else find (j + 1) in
    find 0
  in
  fun r (s : Proto.plan_summary) ->
    let j = warmup_index r in
    let lower = match j with Some j -> bounds.(j) | None -> Check.phi_lower_bound r in
    Result.bind (Check.reply r ~lower ~expect:w.expect s) (fun () ->
        match (w.expect, j) with
        | Exact_hit, Some j ->
            let first : Proto.plan_summary = warm.(j) in
            if first.phi <> s.phi || first.t_psa <> s.t_psa || first.rounded_alloc <> s.rounded_alloc
            then
              Error
                (Printf.sprintf "exact hit served phi %.17g, its first plan had %.17g" s.phi first.phi)
            else Ok ()
        | Exact_hit, None -> Error "an exact-hit request that was not warmed up"
        | (Miss | Shape_hit), _ -> Ok ())

(* Every check failure is reported on stderr (the first few in full);
   the result is whether there were none. *)
let checks (w : Workload.t) ~verify win guard =
  let results =
    List.map (fun (i, s) -> (Printf.sprintf "request %d replay" i, Check.replay w w.stream.(i) s)) win.kept
    @ List.concat
        (List.init (Array.length guard) (fun i ->
             let r = w.guard.(i) and s = guard.(i) in
             [
               (Printf.sprintf "guard %d" i, verify r s);
               (Printf.sprintf "guard %d replay" i, Check.replay w r s);
             ]))
  in
  let failures =
    win.wrong
    @ List.filter_map (function what, Error m -> Some (what ^ ": " ^ m) | _, Ok () -> None) results
  in
  List.iteri (fun i m -> if i < 5 then note "planbench: %s" m) failures;
  if List.length failures > 5 then note "planbench: %d check failures in all" (List.length failures);
  failures = []

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let print_result ~correct ~attempted ~failed metrics =
  let num x =
    if Float.is_finite x then Printf.sprintf "%.17g" x
    else failwith "planbench: a metric is not a finite number"
  in
  let body =
    List.map
      (fun (name, value, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed (String.concat ", " body)

let ms x = 1e3 *. x

let end_to_end_metrics win ~setup_s guard =
  let per_slice = slice_figures win in
  if Array.length per_slice = 0 then failwith "planbench: no slice of the window answered a plan";
  let over f = median (Array.map f per_slice) in
  note "planbench: per-slice plans/s %s"
    (String.concat " " (Array.to_list (Array.map (fun (r, _) -> Printf.sprintf "%.0f" r) per_slice)));
  [
    ("throughput_rps", over fst, "1/s");
    ("latency_p50_ms", ms (chunked_percentile win.latency 50.0), "ms");
    ("latency_p90_ms", ms (chunked_percentile win.latency 90.0), "ms");
    ("server_cpu_ms_per_plan", ms (over snd), "ms");
    ("server_peak_rss_mb", win.rss_mb, "MB");
    ("setup_s", setup_s, "s");
    ("phi_geomean_s", geomean (Array.map (fun (s : Proto.plan_summary) -> s.phi) guard), "s");
    ("t_psa_geomean_s", geomean (Array.map (fun (s : Proto.plan_summary) -> s.t_psa) guard), "s");
  ]

let per_layer_metrics win (st : Replay.state) (samples : Replay.sample array) =
  let med f = median (Array.map f samples) in
  let b = win.stats_before and a = win.stats_after in
  let count name f = (name, float_of_int (f a - f b), "count") in
  let imedian l = median (Array.of_list (List.map float_of_int l)) in
  let pipeline_layers =
    Replay.
      [
        ("mdg.normalise_ms", fun s -> s.layers.normalise);
        ("mdg.key_ms", fun s -> s.layers.key);
        ("plan_cache.lookup_ms", fun s -> s.layers.lookup);
        ("plan_cache.shape_seed_ms", fun s -> s.layers.shape_seed);
        ("allocation.objective_ms", fun s -> s.layers.objective);
        ("convex.compile_ms", fun s -> s.layers.compile);
        ("convex.solve_ms", fun s -> s.layers.solve);
        ("psa.schedule_ms", fun s -> s.layers.psa);
      ]
  in
  let wire_layers =
    Replay.
      [
        ("client.encode_ms", fun s -> s.encode);
        ("protocol.decode_ms", fun s -> s.decode);
        ("protocol.reply_encode_ms", fun s -> s.reply_encode);
        ("client.decode_ms", fun s -> s.client_decode);
      ]
  in
  let layer_ms (name, f) = (name, ms (med f), "ms") in
  let sum layers = List.fold_left (fun acc (_, f) -> acc +. ms (med f)) 0.0 layers in
  let plan_ms = ms (med (fun s -> s.Replay.plan)) in
  let inside = sum pipeline_layers in
  (* The sum check, per request: a mix of graph sizes makes the sum of
     per-layer medians a sum over different requests. *)
  let ratio =
    median
      (Array.map
         (fun s -> List.fold_left (fun acc (_, f) -> acc +. f s) 0.0 pipeline_layers /. s.Replay.plan)
         samples)
  in
  note
    "planbench: pipeline layers sum to %.4f ms of medians against pipeline.plan_ms %.4f; per request, \
     the median of layer sum / pipeline.plan is %.4f"
    inside plan_ms ratio;
  if st.diverged > 0 then
    note "planbench: %d replayed requests differ between the layer mirror and Pipeline.plan" st.diverged;
  let plans = float_of_int (Array.length samples) in
  List.map layer_ms wire_layers
  @ [
      ("protocol.request_kb", med (fun s -> float_of_int s.Replay.request_bytes /. 1024.0), "KB");
      ("protocol.reply_kb", med (fun s -> float_of_int s.Replay.reply_bytes /. 1024.0), "KB");
    ]
  @ List.map layer_ms pipeline_layers
  @ [
      count "plan_cache.exact_hits" (fun s -> s.warm_hits);
      count "plan_cache.shape_hits" (fun s -> s.warm_shape_hits + s.warm_procs_hits);
      count "plan_cache.misses" (fun s -> s.warm_misses);
      count "plan_cache.tape_hits" (fun s -> s.tape_hits);
      count "plan_cache.tape_misses" (fun s -> s.tape_misses);
      count "plan_cache.coalesce_hits" (fun s -> s.coalesce_hits);
      ( "plan_cache.solves_per_plan",
        float_of_int (Array.fold_left (fun acc s -> acc + s.Replay.layers.solves) 0 samples) /. plans,
        "solves/plan" );
      ("convex.iterations", imedian st.iterations, "count");
      ("convex.stages", imedian st.stages, "count");
      ("pipeline.plan_ms", plan_ms, "ms");
      ("daemon.residual_ms", ms (percentile win.latency 50.0) -. (inside +. sum wire_layers), "ms");
      ("daemon.queue_depth_max", float_of_int win.queue_max, "count");
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let describe (w : Workload.t) =
  let sizes = Array.map (fun (r : Workload.req) -> float_of_int (Mdg.Graph.num_nodes r.graph)) w.stream in
  let procs = List.sort_uniq compare (Array.to_list (Array.map (fun (r : Workload.req) -> r.procs) w.stream)) in
  note "planbench: %s: %d warm-up, %d stream, %d guard requests; stream nodes %g-%g (median %g); procs %s"
    w.name (Array.length w.warmup) (Array.length w.stream) (Array.length w.guard) (percentile sizes 0.0)
    (percentile sizes 100.0) (median sizes)
    (String.concat "," (List.map string_of_int procs))

let run ~exe ~workload ~seed ~seconds ~trace =
  let w = Workload.make workload ~seed ~seconds in
  describe w;
  let window_s = if trace then float_of_int seconds /. 2.0 else float_of_int seconds in
  let srv, conn, warm, setup_s = setup_median ~exe w in
  let verify = verifier w ~warm in
  let win, guard =
    Fun.protect ~finally:(fun () -> close_all (srv, conn)) @@ fun () ->
    let win = timed_window ~seconds:window_s ~sample_queue:trace ~verify srv conn w in
    (win, Array.map (plan_exn conn) w.guard)
  in
  let correct = checks w ~verify win guard in
  List.iteri (fun i m -> if i < 5 then note "planbench: failed request: %s" m) win.errors;
  let metrics =
    if trace then
      let st, samples = Replay.run w ~seconds:window_s in
      per_layer_metrics win st samples
    else end_to_end_metrics win ~setup_s guard
  in
  print_result ~correct ~attempted:win.attempted ~failed:(List.length win.errors) metrics

let () =
  let exe = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--server", Arg.Set_string exe, "PATH paradigm executable to serve plans");
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "planbench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1";
  if !exe = "" || not (List.mem !workload Workload.names) || !seconds < 1 then begin
    prerr_endline "planbench: need --server PATH, a known --workload and --seconds >= 1";
    exit 2
  end;
  run ~exe:!exe ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
