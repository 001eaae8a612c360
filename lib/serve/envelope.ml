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
