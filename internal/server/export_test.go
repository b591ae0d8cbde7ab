package server

import "leed/internal/rpcproto"

// SetTestHook installs a per-request hook on cfg (tests only); a hook that
// panics exercises the handler's panic isolation.
func SetTestHook(cfg *Config, hook func(*rpcproto.Request)) { cfg.testHook = hook }

// Route reports the engine partition that owns key (tests only).
func (s *Server) Route(key []byte) int { return s.route(key) }

// Workers reports the worker tasks started on open connections (tests only;
// task context).
func (s *Server) Workers() (n int) {
	for sc := range s.conns {
		n += sc.workers
	}
	return n
}
