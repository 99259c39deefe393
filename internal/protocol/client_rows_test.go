package protocol

import (
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/wire"
)

// corruptRecv is the client's side of the connection in
// TestHelperRowFailure. It rewrites material frame number corrupt (when
// ≥ 0): its first two half-gate tables, two rows each, become a 3-row
// and a 1-row table. The table region keeps its length and table count,
// so the frame parses and only the evaluator refuses it. It also
// records whether the client closed the connection. A frame counts as
// material only if it parses as such: OT frames are random bytes, and
// one in 256 starts with the material tag.
type corruptRecv struct {
	wire.Conn
	corrupt, seen int
	closed        atomic.Bool
}

func (c *corruptRecv) RecvMsg() ([]byte, error) {
	msg, err := c.Conn.RecvMsg()
	if err != nil || tagOf(msg) != tagMaterial {
		return msg, err
	}
	if _, perr := gc.UnmarshalMaterial(msg[1:]); perr == nil {
		if c.seen == c.corrupt {
			const tables = 1 + 1 + 8 + 4 // tag, codec version, tweak base, table count
			msg[tables] = 3
			msg[tables+1+3*label.Size] = 1
		}
		c.seen++
	}
	return msg, err
}

func (c *corruptRecv) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

func (c *corruptRecv) Unwrap() wire.Conn { return c.Conn }

// TestHelperRowFailure drives the client's row-parallel evaluation into
// a failure that lands in a row a helper goroutine owns (row 1 of 4:
// rows r ≡ 0 (mod GOMAXPROCS) stay with the reader), or in the reader's
// own row at GOMAXPROCS 1. Whether the server sends its error frame
// there or the row's table is corrupt, Do must fail with that error,
// close the connection, and leave no goroutine behind — the per-round
// request writer, blocked on its window or on the wire, included — and
// the server's arena must have every buffer back; so must a clean
// request, minus the failure.
func TestHelperRowFailure(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const rows, cols = 4, 3
	A := make([][]int64, rows)
	for i := range A {
		A[i] = []int64{int64(i + 1), -2, 3}
	}
	y := []int64{5, 6, 7}
	cases := []struct {
		name    string
		hook    func(row int) // the server's garbling fault, if any
		corrupt int           // the material frame to corrupt, or -1
		check   func(out []int64, err error) error
	}{
		{"clean request", nil, -1, func(out []int64, err error) error {
			if err != nil {
				return err
			}
			for i, v := range out {
				if want := A[i][0]*y[0] + A[i][1]*y[1] + A[i][2]*y[2]; v != want {
					return fmt.Errorf("row %d = %d, want %d", i, v, want)
				}
			}
			return nil
		}},
		{"server error frame", func(row int) {
			if row == 1 {
				panic("injected garbling fault")
			}
		}, -1, func(_ []int64, err error) error {
			if !errors.Is(err, ErrInternal) {
				return fmt.Errorf("client error = %v, want ErrInternal", err)
			}
			return nil
		}},
		{"corrupt table", nil, cols, func(_ []int64, err error) error { // row 1, round 0
			if err == nil || !strings.Contains(err.Error(), "row 1 round 0 evaluate") {
				return fmt.Errorf("client error = %v, want one naming row 1 round 0's evaluation", err)
			}
			return nil
		}},
	}
	for _, procs := range []int{1, 2, 4} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				runtime.GOMAXPROCS(procs)
				before := runtime.NumGoroutine()
				srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true})
				if err != nil {
					t.Fatal(err)
				}
				cli, err := NewClient(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				garbleTestHook = tc.hook
				defer func() { garbleTestHook = nil }()
				a, b := wire.Pipe()
				defer a.Close()
				conn := &corruptRecv{Conn: b, corrupt: tc.corrupt}
				srvDone := make(chan error, 1)
				go func() {
					sess, err := srv.NewSession(a, SessionConfig{GarbleWorkers: 1})
					if err != nil {
						srvDone <- err
						return
					}
					defer sess.Close()
					_, err = sess.Serve(Request{Matrix: A})
					srvDone <- err
				}()
				cs, err := cli.Dial(conn)
				if err != nil {
					t.Fatal(err)
				}
				out, derr := cs.Do(y)
				if err := tc.check(out, derr); err != nil {
					t.Fatal(err)
				}
				if failed := derr != nil; conn.closed.Load() != failed || (cs.Err() != nil) != failed {
					t.Fatalf("after Do error %v: connection closed = %v, session broken = %v", derr, conn.closed.Load(), cs.Err())
				}
				if derr == nil {
					if err := cs.Close(); err != nil {
						t.Fatal(err)
					}
				}
				select {
				case <-srvDone:
				case <-time.After(10 * time.Second):
					t.Fatal("server still serving 10 s after the client finished")
				}
				b.Close()
				if got := srv.ArenaOutstanding(); got != 0 {
					t.Errorf("arena buffers outstanding: %d", got)
				}
				checkGoroutines(t, before)
			})
		}
	}
}
