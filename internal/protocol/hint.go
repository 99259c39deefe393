package protocol

// Shape hints: the optional routing preface a client may send as its
// very first frame, before the server's hello arrives. A shape-aware
// gateway (cmd/maxgw) peeks the hint to prefer the backends that
// advertise that shape, least loaded first; a server dialed directly
// simply skips the frame during its handshake. The hint is
// advisory and unauthenticated — it carries only what the client was
// going to reveal through its traffic pattern anyway (request
// dimensions and modes, never input values), so routing on it leaks
// nothing beyond the existing honest-but-curious model.

import (
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// ShapeHint names the request shape a session intends to issue, in the
// same vocabulary as the precompute pool keys (rows×cols, operand
// width, signedness, datapath mode, OT mode). Zero fields mean
// "unknown": a client that cannot know the server's row count sends
// Rows 0; its Key then matches no advertisement and the session is
// routed by load alone.
type ShapeHint struct {
	// Rows and Cols are the expected request matrix dimensions (the
	// client typically knows Cols — its vector length — and may not
	// know Rows).
	Rows, Cols int
	// Width is the operand bit-width; Signed the datapath signedness.
	Width  int
	Signed bool
	// Mode is the name of the datapath ("matvec").
	Mode string
	// OT is the label-transfer mode name ("per-round" or "batched").
	OT string
}

// Key renders the hint as the string a gateway matches against the
// backends' /shapez advertisements: the precompute shape label itself,
// so a pool metric and a routing decision read identically in
// dashboards.
func (h ShapeHint) Key() string { return precompute.Shape(h).String() }

// shapeModeMatVec is the one datapath name, as it appears in hints and
// precompute pool keys: one garbled MAC round per matrix element.
const shapeModeMatVec = "matvec"

// SendShapeHint writes the hint preface on conn. Clients call it (via
// Client.WithShapeHint) before reading the server hello; a gateway
// consumes the frame, a directly-dialed server skips it. A Mode or OT
// outside the protocol's vocabulary is refused here, before anything is
// sent.
func SendShapeHint(conn wire.Conn, h ShapeHint) error {
	frame, err := appendShapeHint(nil, h)
	if err != nil {
		return err
	}
	return conn.SendMsg(frame)
}

// PeekShapeHint reports whether an already-received frame is a
// shape-hint preface, and the hint it carries. Every other frame (hello
// ack, busy, hello, a malformed hint) reports false, so a router can
// peek its client's first frame without consuming anything it cannot
// classify.
func PeekShapeHint(frame []byte) (ShapeHint, bool) {
	h, err := parseShapeHint(frame)
	return h, err == nil
}

// PeekBusy reports whether an already-received frame is a load-shedding
// busy frame, as the BusyError Client.Dial would return for it. A
// gateway uses it on the first backend frame to trigger failover to the
// next candidate backend instead of surfacing the rejection.
func PeekBusy(frame []byte) (*BusyError, bool) {
	retryAfter, err := parseBusy(frame)
	if err != nil {
		return nil, false
	}
	return &BusyError{RetryAfter: retryAfter}, true
}
