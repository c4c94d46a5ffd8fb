let failed checks =
  List.filter_map (fun (check, detail, ok) -> if ok then None else Some (check, detail)) checks
