package server

import "time"

// SetFrameTimeouts shortens the per-frame deadlines of s's held frame
// connections, for tests that must outlast them. Call it before s serves.
func SetFrameTimeouts(s *Server, read, write time.Duration) {
	s.hs.ReadHeaderTimeout, s.hs.WriteTimeout = read, write
}
