package protocol

// The per-round OT's request writer (otRequests): it must send u
// matrices before the material they answer, keep each direction's
// bytes those of the lockstep client, and never outlive a failed
// request.

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/ot"
	"maxelerator/internal/wire"
)

// lockstepRun is the per-round client as it was before its requests ran
// ahead: Dial, then one request that sends round k's u matrix only once
// row 0's round k material has arrived (ot.ReceiveLabels per round, on
// one goroutine, one evaluator) and reuses those labels for every later
// row, then Close.
func lockstepRun(c *Client, conn wire.Conn, y []int64) ([]int64, error) {
	cs, err := c.Dial(conn)
	if err != nil {
		return nil, err
	}
	if err := cs.tc.SendMsg([]byte{tagReqOpen}); err != nil {
		return nil, err
	}
	hdr, err := recvFrame(cs.tc, parseReqHeader)
	if err != nil {
		return nil, err
	}
	if hdr.OT != OTPerRound || hdr.Cols != len(y) {
		return nil, fmt.Errorf("lockstep client: got a %s request of %d columns", hdr.OT, hdr.Cols)
	}
	ev, err := gc.NewEvaluator(cs.params, cs.macCkt)
	if err != nil {
		return nil, err
	}
	outs := make([]int64, hdr.Rows)
	active := make([][]label.Label, len(y))
	for row := range outs {
		var res *gc.EvalResult
		for round, v := range y {
			in := chainRound{}
			if in.m, in.frame, err = recvMaterial(cs.tc); err != nil {
				return nil, err
			}
			if row == 0 {
				if active[round], err = ot.ReceiveLabels(cs.receiver, circuit.Int64ToBits(v, cs.h.Width)); err != nil {
					return nil, err
				}
			}
			in.active = active[round]
			if res, err = in.eval(ev, res, row, round); err != nil {
				return nil, err
			}
		}
		outs[row] = cs.decode(res.Outputs)
	}
	if err := cs.tc.SendMsg(appendResult(nil, outs)); err != nil {
		return nil, err
	}
	return outs, cs.Close()
}

// TestPerRoundLockstepClientStillServed pins what lets a v7 client of
// either generation talk to this server: the server reads round k's u
// matrix after sending round k's material, so a lockstep client — one
// that sends it only then — is served, and the bytes in each direction
// are those of the client whose requests run ahead. A server that read
// u first would strand lockstep clients and need a ProtoVersion bump.
// The 3×3 request's later rows run no OT on either client.
func TestPerRoundLockstepClientStillServed(t *testing.T) {
	chainA, chainY := chainFixture()
	for _, tc := range []struct {
		name string
		A    [][]int64
		y    []int64
	}{
		{"1x64", chainA, chainY},
		{"3x3", [][]int64{{1, -2, 3}, {4, 5, -6}, {-7, 8, 9}}, []int64{7, -8, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvLock, cliLock, out := streamTranscriptWith(t, tc.A, tc.y, OTPerRound, 0, 2, poolNone, lockstepRun)
			for i, row := range tc.A {
				var want int64
				for j := range row {
					want += row[j] * tc.y[j]
				}
				if out[i] != want {
					t.Fatalf("lockstep client: row %d = %d, want %d", i, out[i], want)
				}
			}
			if d := framesDigest(srvLock); len(tc.A) == 1 && d != chainTranscriptDigest {
				t.Fatalf("lockstep client: server transcript digest %s, want %s", d, chainTranscriptDigest)
			}
			srvAhead, cliAhead, _ := streamTranscriptWith(t, tc.A, tc.y, OTPerRound, 0, 2, poolNone, clientRun)
			sameFrames(t, "server frames, lookahead vs lockstep client", srvAhead, srvLock)
			sameFrames(t, "client frames, lookahead vs lockstep client", cliAhead, cliLock)
		})
	}
}

// holdMaterial is the server's side of the connection: it holds
// material frame number at (from 0) until release closes, or fails it
// once the connection closes.
type holdMaterial struct {
	wire.Conn
	at      int
	release <-chan struct{} // nil: hold until closed
	seen    int
	closed  chan struct{}
	once    sync.Once
}

func newHoldMaterial(conn wire.Conn, at int, release <-chan struct{}) *holdMaterial {
	return &holdMaterial{Conn: conn, at: at, release: release, closed: make(chan struct{})}
}

func (c *holdMaterial) SendMsg(m []byte) error {
	if tagOf(m) == tagMaterial {
		if c.seen == c.at {
			select {
			case <-c.release:
			case <-c.closed:
				return wire.ErrClosed
			}
		}
		c.seen++
	}
	return c.Conn.SendMsg(m)
}

func (c *holdMaterial) SendMsgs(ms [][]byte) error { return sendEach(c, ms) }

func (c *holdMaterial) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *holdMaterial) Unwrap() wire.Conn { return c.Conn }

// countRequests is the client's side of the connection: once a request
// is open it counts the u frames the client sends (ot.Kappa bytes each
// at b ≤ 8) and closes enough when the want-th has gone out.
type countRequests struct {
	wire.Conn
	want   int64
	open   atomic.Bool
	sent   atomic.Int64
	enough chan struct{}
}

func (c *countRequests) SendMsg(m []byte) error {
	if err := c.Conn.SendMsg(m); err != nil {
		return err
	}
	switch {
	case len(m) == 1 && m[0] == tagReqOpen:
		c.open.Store(true)
	case c.open.Load() && len(m) == ot.Kappa:
		if c.sent.Add(1) == c.want {
			close(c.enough)
		}
	}
	return nil
}

func (c *countRequests) SendMsgs(ms [][]byte) error { return sendEach(c, ms) }

func (c *countRequests) Unwrap() wire.Conn { return c.Conn }

// TestPerRoundLookaheadSendsEarly: the server holds its first material
// frame until the client has sent min(otLookahead, Cols) u matrices,
// all it sends: only row 0's rounds run an OT. A client that sends a
// round's request only after its material never gets there, and the
// 5 s bound releases the frame instead.
func TestPerRoundLookaheadSendsEarly(t *testing.T) {
	chainA, chainY := chainFixture()
	for _, tc := range []struct {
		name string
		A    [][]int64
		y    []int64
	}{
		{"1x64", chainA, chainY},
		{"3x3", [][]int64{{1, -2, 3}, {4, 5, -6}, {-7, 8, 9}}, []int64{7, -8, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := min(otLookahead, len(tc.y))
			srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := NewClient(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			a, b := wire.Pipe()
			defer a.Close()
			cconn := &countRequests{Conn: b, want: int64(want), enough: make(chan struct{})}
			release := make(chan struct{})
			sentByTimeout := int64(-1) // stays -1 unless the bound released the frame
			go func() {
				select {
				case <-cconn.enough:
				case <-time.After(5 * time.Second):
					sentByTimeout = cconn.sent.Load()
				}
				close(release)
			}()
			srvDone := make(chan error, 1)
			go func() {
				_, err := serveOne(srv, newHoldMaterial(a, 0, release), SessionConfig{}, Request{Matrix: tc.A})
				srvDone <- err
			}()
			out, err := clientRun(cli, cconn, tc.y)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-srvDone; err != nil {
				t.Fatal(err)
			}
			for i, row := range tc.A {
				var w int64
				for j := range row {
					w += row[j] * tc.y[j]
				}
				if out[i] != w {
					t.Fatalf("row %d = %d, want %d", i, out[i], w)
				}
			}
			if sentByTimeout >= 0 { // read after the release that wrote it: the server needed it to finish
				t.Fatalf("5 s after the first material frame was due the client had sent %d of %d u matrices", sentByTimeout, want)
			}
		})
	}
}

// TestPerRoundLookaheadWriterExits: whatever ends a per-round request
// early — an error frame in place of material, a server that stops
// sending, a server whose context is cancelled mid-rounds — Do fails,
// the session breaks, the request writer is gone with every other
// client goroutine, and the server's arena has every buffer back.
func TestPerRoundLookaheadWriterExits(t *testing.T) {
	A, y := chainFixture()
	for _, tc := range []struct {
		name   string
		hook   func(cancel func(), round int)
		hold   bool // the server holds material frame 3 until closed
		client Timeouts
		want   func(error) bool
	}{
		{"error frame", func(_ func(), round int) {
			if round == 5 {
				panic("injected garbling fault")
			}
		}, false, Timeouts{}, func(err error) bool { return errors.Is(err, ErrInternal) }},
		{"stalled server", nil, true, Timeouts{Handshake: faultBudget, IO: 300 * time.Millisecond},
			func(err error) bool { return errors.Is(err, ErrPhaseTimeout) }},
		{"cancelled context", func(cancel func(), round int) {
			if round == 5 {
				cancel()
			}
		}, false, Timeouts{}, func(err error) bool { return err != nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := NewClient(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			cli.WithTimeouts(tc.client)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.hook != nil {
				garbleRoundTestHook = func(_, round int) { tc.hook(cancel, round) }
				defer func() { garbleRoundTestHook = nil }()
			}
			a, b := wire.Pipe()
			defer b.Close()
			sconn := wire.Conn(a)
			if tc.hold {
				sconn = newHoldMaterial(a, 3, nil)
			}
			srvDone := make(chan struct{})
			go func() {
				defer close(srvDone)
				defer sconn.Close() // as the daemon does once a session ends
				sess, err := srv.NewSessionContext(ctx, sconn, SessionConfig{GarbleWorkers: 1})
				if err != nil {
					return
				}
				defer sess.Close()
				sess.ServeContext(ctx, Request{Matrix: A})
			}()
			cs, err := cli.Dial(b)
			if err != nil {
				t.Fatal(err)
			}
			_, derr := cs.Do(y)
			if !tc.want(derr) {
				t.Fatalf("Do error = %v", derr)
			}
			if cs.Err() == nil {
				t.Fatal("the session is still usable after a failed request")
			}
			sconn.Close()
			select {
			case <-srvDone:
			case <-time.After(10 * time.Second):
				t.Fatal("server still serving 10 s after the client failed")
			}
			if got := srv.arena.Outstanding(); got != 0 {
				t.Errorf("arena buffers outstanding: %d", got)
			}
			checkGoroutines(t, before)
		})
	}
}
