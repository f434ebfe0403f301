package server

import (
	"errors"
	"io"
)

// Faults is the server's fault-injection surface, used by stress
// tests to exercise error paths that real traffic only hits under
// load (§5.4's "survive hostile clients" requirement). All hooks may
// be invoked concurrently from multiple goroutines and must be safe
// for that; nil hooks are simply skipped. Production configurations
// leave Faults nil.
type Faults struct {
	// AcceptErr, when non-nil, is consulted before every Accept.
	// Returning a non-nil error substitutes it for the accept (the
	// loop treats it as a transient listener failure and backs off).
	AcceptErr func() error
	// ReadErr, when non-nil, is consulted before every read on every
	// connection; returning true fails that read with an injected
	// error, ending the connection as a hostile peer would.
	ReadErr func() bool
	// PreReply, when non-nil, runs before every reply write. Sleeping
	// here simulates a stalled server under a slow downstream.
	PreReply func()
	// ReadFrames, when positive, caps every read on every connection
	// at that many binary request frames' bytes, so a pipelined batch
	// reaches the request loop, and its replies the wire, a few frames
	// at a time, as over a slow link.
	ReadFrames int
}

// errInjectedRead marks reads failed by Faults.ReadErr.
var errInjectedRead = errors.New("server: injected read fault")

// faultReader wraps a connection's reader, consulting the injection
// hook before every read and capping the read at limit bytes.
type faultReader struct {
	r      io.Reader
	inject func() bool // nil: no injected errors
	limit  int         // 0: no cap
}

func (f *faultReader) Read(p []byte) (int, error) {
	if f.inject != nil && f.inject() {
		return 0, errInjectedRead
	}
	if f.limit > 0 && len(p) > f.limit {
		p = p[:f.limit]
	}
	return f.r.Read(p)
}
