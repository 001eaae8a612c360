(* The unified response envelope (see envelope.mli). *)

type status = Ok | Fail | Error

let schema_version = 1

let status_to_string = function
  | Ok -> "ok"
  | Fail -> "fail"
  | Error -> "error"

let to_json ?id ~status ~elapsed_s payload =
  let open Json in
  Obj
    ((("schema_version", int schema_version)
     :: (match id with Some id -> [ ("id", Str id) ] | None -> []))
    @ [
        ("status", Str (status_to_string status));
        ("elapsed_s", Fixed (6, elapsed_s)); ("payload", payload);
      ])

let line ?id ~status ~elapsed_s payload =
  Json.to_compact (to_json ?id ~status ~elapsed_s payload) ^ "\n"

let error_payload msg = Json.Obj [ ("error", Json.Str msg) ]

let wrap ?id ~status ~elapsed_s ~payload () =
  match Json.parse payload with
  | Result.Ok v -> line ?id ~status ~elapsed_s v
  | Result.Error _ ->
      (* Never emit a broken document: a payload that is not valid JSON
         becomes an error envelope carrying the head of the offending
         text. *)
      let head =
        if String.length payload > 120 then String.sub payload 0 120
        else payload
      in
      line ?id ~status:Error ~elapsed_s
        (error_payload ("invalid payload JSON: " ^ head))

let error ?id msg = line ?id ~status:Error ~elapsed_s:0.0 (error_payload msg)

(* The bench report's "speedup" figure.  With a single domain the
   parallel engine and the serial baseline measure the same thing, and
   the ratio is pure noise that once read as a real regression ("speedup
   0.9x!") — so the field is omitted entirely rather than emitted with a
   misleading value.  Centralised here (next to the other report-shape
   decisions) so the rule is testable without running a bench. *)
let speedup_field ~domains ~engine_wall_s ~serial_fresh_wall_s =
  if domains <= 1 then None
  else
    Some
      (Json.Fixed
         ( 6,
           if engine_wall_s > 0.0 then serial_fresh_wall_s /. engine_wall_s
           else 0.0 ))
