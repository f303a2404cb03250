let size () = 0
