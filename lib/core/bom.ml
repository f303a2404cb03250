open Xmlb

type screen = {
  width : int;
  height : int;
  avail_width : int;
  avail_height : int;
  color_depth : int;
}

let default_screen =
  { width = 1280; height = 1024; avail_width = 1280; avail_height = 984; color_depth = 32 }

type navigator = {
  app_name : string;
  app_version : string;
  user_agent : string;
  platform : string;
  language : string;
  cookie_enabled : bool;
}

let internet_explorer =
  {
    app_name = "Microsoft Internet Explorer";
    app_version = "7.0";
    user_agent = "Mozilla/4.0 (compatible; MSIE 7.0; Windows NT 6.0; XQIB)";
    platform = "Win32";
    language = "en";
    cookie_enabled = true;
  }

let firefox =
  {
    app_name = "Mozilla Firefox";
    app_version = "3.0";
    user_agent = "Mozilla/5.0 (X11; Linux; rv:3.0) Gecko Firefox/3.0 XQIB";
    platform = "Linux";
    language = "en";
    cookie_enabled = true;
  }

let qn local = Qname.make local

let leaf name text =
  let el = Dom.create_element (qn name) in
  Dom.fill el ~attrs:[] [ Dom.create_text text ];
  el

let element name fields =
  let el = Dom.create_element (qn name) in
  Dom.fill el ~attrs:[] (List.map (fun (fname, text) -> leaf fname text) fields);
  el

let screen_to_xml s =
  element "screen"
    [
      ("width", string_of_int s.width);
      ("height", string_of_int s.height);
      ("availWidth", string_of_int s.avail_width);
      ("availHeight", string_of_int s.avail_height);
      ("colorDepth", string_of_int s.color_depth);
    ]

let navigator_to_xml n =
  element "navigator"
    [
      ("appName", n.app_name);
      ("appVersion", n.app_version);
      ("userAgent", n.user_agent);
      ("platform", n.platform);
      ("language", n.language);
      ("cookieEnabled", if n.cookie_enabled then "true" else "false");
    ]

let location_to_xml ~href =
  let origin = Origin.of_uri href in
  let path =
    match Http_sim.split_uri href with Some (_, p) -> p | None -> href
  in
  let host, port =
    match String.index_opt origin.Origin.host ':' with
    | Some i ->
        ( String.sub origin.Origin.host 0 i,
          String.sub origin.Origin.host (i + 1)
            (String.length origin.Origin.host - i - 1) )
    | None -> (origin.Origin.host, if origin.Origin.scheme = "https" then "443" else "80")
  in
  element "location"
    [
      ("href", href);
      ("protocol", origin.Origin.scheme ^ ":");
      ("host", origin.Origin.host);
      ("hostname", host);
      ("port", port);
      ("pathname", path);
    ]
