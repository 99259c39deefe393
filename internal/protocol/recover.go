package protocol

// Panic containment. The garbler is a long-running daemon serving many
// tenants: a panic while garbling one poisoned request must fail that
// request, never the process. recover() sits everywhere a request's
// code runs — the session goroutine (serveRows) and each garble lane,
// lane 0 included — and converts the panic into an error wrapping
// ErrInternal. The session is broken (the stream position is unknown)
// but the daemon, its listener, and every other session stay up, and
// the peer receives an explicit error frame instead of waiting out its
// deadline. Replaying the failed request on a fresh session is safe:
// every garbling uses fresh labels and a fresh free-XOR offset, so the
// aborted attempt leaked nothing.

import (
	"fmt"
	"log"
	"runtime/debug"
	"sync"

	"maxelerator/internal/obs"
)

// panicStackOnce gates the full stack dump: the first recovered panic
// logs its stack for diagnosis, later ones log a single line (the
// panic value repeats; the stack is almost always the same).
var panicStackOnce sync.Once

// recoveredPanic converts a recovered panic value into a per-request
// error, counting it and logging the stack once per process.
func recoveredPanic(reg *obs.Registry, r any) error {
	reg.Counter("panics_recovered_total",
		"panics recovered and converted to per-request errors").Inc()
	logged := false
	panicStackOnce.Do(func() {
		logged = true
		log.Printf("protocol: recovered panic: %v\n%s", r, debug.Stack())
	})
	if !logged {
		log.Printf("protocol: recovered panic: %v", r)
	}
	return fmt.Errorf("%w: recovered panic: %v", ErrInternal, r)
}
