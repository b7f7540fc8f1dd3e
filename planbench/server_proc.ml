(* The plan server under test, run as its own process ([paradigm serve]
   with default options), and its resource use read from outside
   through /proc. *)

type t = { pid : int; out : in_channel; port : int }

let live : t list ref = ref []

let kill_quietly pid sg = try Unix.kill pid sg with Unix.Unix_error _ -> ()

let () = at_exit (fun () -> List.iter (fun t -> kill_quietly t.pid Sys.sigkill) !live)

(* The server announces "... listening on ADDR:PORT (N workers)" once
   it is bound; asking for port 0 lets the kernel pick a free one. *)
let parse_port line =
  match String.rindex_opt line ':' with
  | None -> None
  | Some i -> Scanf.sscanf_opt (String.sub line (i + 1) (String.length line - i - 1)) "%d" Fun.id

let spawn exe =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe [| exe; "serve"; "--port"; "0" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  live := { pid; out; port = 0 } :: !live;
  let rec await () =
    match input_line out with
    | line -> ( match parse_port line with Some port -> port | None -> await ())
    | exception End_of_file -> failwith "plan server exited before listening"
  in
  { pid; out; port = await () }

(* SIGINT asks for the graceful drain; a server that has not exited
   within 10 s is killed.  Either way the process is reaped. *)
let stop t =
  kill_quietly t.pid Sys.sigint;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          kill_quietly t.pid Sys.sigkill;
          ignore (Unix.waitpid [] t.pid)
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  close_in_noerr t.out;
  live := List.filter (fun s -> s.pid <> t.pid) !live

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of every thread of the process, in seconds: fields 14
   and 15 of /proc/<pid>/stat, in USER_HZ = 100 ticks.  Fields are
   counted after the parenthesised command name, which may hold
   spaces. *)
let cpu_seconds t =
  let s = read_file (Printf.sprintf "/proc/%d/stat" t.pid) in
  let after = String.rindex s ')' + 2 in
  let f = Array.of_list (String.split_on_char ' ' (String.sub s after (String.length s - after))) in
  (* f.(0) is field 3. *)
  (float_of_string f.(14 - 3) +. float_of_string f.(15 - 3)) /. 100.0

(* Peak resident set of the process so far (VmHWM), in MB. *)
let peak_rss_mb t =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' s)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* The host's steal and total CPU ticks so far (first line of
   /proc/stat): on a shared virtual machine the share stolen during a
   run explains most of its distance from the others. *)
let host_steal () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  let f =
    String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.tl |> List.map float_of_string
  in
  (List.nth f 7, List.fold_left ( +. ) 0.0 f)

let steal_share ~since:(s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0
