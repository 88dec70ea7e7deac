package bms

// CloseLog closes a durable server's write-ahead log under it, so the
// next append fails as a full or vanished disk would.
func CloseLog(s *Server) error { return s.dur.wal.Close() }
