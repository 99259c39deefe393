package protocol

// Shape hints: the optional routing preface a client may send as its
// very first frame, before the server's hello arrives. A shape-aware
// gateway (cmd/maxgw) peeks the hint to pin the session to the backend
// whose precompute pool is warm for that shape; a server dialed
// directly simply skips the frame during its handshake. The hint is
// advisory and unauthenticated — it carries only what the client was
// going to reveal through its traffic pattern anyway (request
// dimensions and modes, never input values), so routing on it leaks
// nothing beyond the existing honest-but-curious model.

import (
	"fmt"

	"maxelerator/internal/wire"
)

// ShapeHint names the request shape a session intends to issue, in the
// same vocabulary as the precompute pool keys (rows×cols, operand
// width, signedness, datapath mode, OT mode). Zero fields mean
// "unknown": a client that cannot know the server's row count sends
// Rows 0 and still routes consistently, because routing hashes the
// rendered Key, unknowns included.
type ShapeHint struct {
	// Rows and Cols are the expected request matrix dimensions (the
	// client typically knows Cols — its vector length — and may not
	// know Rows).
	Rows, Cols int
	// Width is the operand bit-width; Signed the datapath signedness.
	Width  int
	Signed bool
	// Mode is the wire name of the datapath ("matvec").
	Mode string
	// OT is the label-transfer mode name ("per-round" or "batched").
	OT string
}

// Key renders the hint as the stable routing key a gateway hashes:
// same format as the precompute shape labels, so a pool metric and a
// routing decision read identically in dashboards.
func (h ShapeHint) Key() string {
	sign := "u"
	if h.Signed {
		sign = "s"
	}
	return fmt.Sprintf("%dx%d/b%d%s/%s/%s", h.Rows, h.Cols, h.Width, sign, h.Mode, h.OT)
}

// msgShapeHint is the wire form of the preface. Hint is always true on
// the wire; it is the field that distinguishes a hint from the other
// first-frame shapes when probed (gob matches fields by name, so a
// helloAck or busy frame decoded into msgShapeHint leaves Hint false —
// the same trick msgBusy uses).
type msgShapeHint struct {
	Hint       bool
	Rows, Cols int
	Width      int
	Signed     bool
	Mode       string
	OT         string
}

// SendShapeHint writes the hint preface on conn. Clients call it (via
// Client.WithShapeHint) before reading the server hello; a gateway
// consumes the frame, a directly-dialed server skips it.
func SendShapeHint(conn wire.Conn, h ShapeHint) error {
	return sendGob(conn, msgShapeHint{
		Hint: true,
		Rows: h.Rows, Cols: h.Cols, Width: h.Width, Signed: h.Signed,
		Mode: h.Mode, OT: h.OT,
	})
}

// PeekShapeHint probes an already-received frame as a shape-hint
// preface. It reports false for every other frame shape (helloAck,
// busy, hello), so a router can peek its client's first frame without
// consuming anything it cannot classify.
func PeekShapeHint(frame []byte) (ShapeHint, bool) {
	var m msgShapeHint
	if err := decodeGob(frame, &m); err != nil || !m.Hint {
		return ShapeHint{}, false
	}
	return ShapeHint{
		Rows: m.Rows, Cols: m.Cols, Width: m.Width, Signed: m.Signed,
		Mode: m.Mode, OT: m.OT,
	}, true
}

// PeekBusy probes an already-received frame as a load-shedding BUSY
// frame, the way Client.Dial does before version negotiation. A
// gateway uses it on the first backend frame to trigger failover to
// the next ring replica instead of surfacing the rejection.
func PeekBusy(frame []byte) (*BusyError, bool) {
	var busy msgBusy
	if err := decodeGob(frame, &busy); err != nil || !busy.Busy {
		return nil, false
	}
	return &BusyError{RetryAfter: busyRetryAfter(busy)}, true
}
