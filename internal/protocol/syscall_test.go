package protocol

// The syscalls a per-round request costs over loopback TCP. A stream
// conn reads ahead, so a read brings in every frame the peer has
// written, and the server sends a row-0 round's material and its OT
// answer in one write once the round's u matrix is read ahead.

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/circuit"
	"maxelerator/internal/gc"
	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/ot"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// readCounter counts the reads a stream conn makes on its socket. It
// embeds the *net.TCPConn, so the conn's writes still take the socket's
// writev path.
type readCounter struct {
	*net.TCPConn
	reads atomic.Int64
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.TCPConn.Read(p)
}

// writeCounter sits right on a stream conn: each SendMsg or SendMsgs
// it forwards is one write of the socket (one writev). It counts them,
// the frames they carry and the frames received, and hashes the frames
// sent, each behind its length, as framesDigest does: the bytes the
// conn puts on the wire. uWrites counts the writes, once a request
// open has been sent, whose every frame is a u matrix of a b ≤ 8
// request (ot.Kappa bytes).
type writeCounter struct {
	wire.Conn
	mu                  sync.Mutex
	writes, sent, recvd int
	open                bool
	uWrites             int
	digest              hash.Hash
}

func newWriteCounter(c wire.Conn) *writeCounter {
	return &writeCounter{Conn: c, digest: sha256.New()}
}

func (c *writeCounter) SendMsg(m []byte) error { return c.SendMsgs([][]byte{m}) }

func (c *writeCounter) SendMsgs(ms [][]byte) error {
	c.mu.Lock()
	c.writes++
	us := c.open
	for _, m := range ms {
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(m)))
		c.digest.Write(n[:])
		c.digest.Write(m)
		c.sent++
		us = us && len(m) == ot.Kappa
		c.open = c.open || len(m) == 1 && m[0] == tagReqOpen
	}
	if us {
		c.uWrites++
	}
	c.mu.Unlock()
	return c.Conn.SendMsgs(ms)
}

func (c *writeCounter) RecvMsg() ([]byte, error) {
	m, err := c.Conn.RecvMsg()
	if err == nil {
		c.mu.Lock()
		c.recvd++
		c.mu.Unlock()
	}
	return m, err
}

func (c *writeCounter) Unwrap() wire.Conn { return c.Conn }

// corkConn holds what is sent through it while corked, and sends it
// all in one SendMsgs on uncork.
type corkConn struct {
	wire.Conn
	corked bool
	held   [][]byte
}

func (c *corkConn) SendMsg(m []byte) error {
	if !c.corked {
		return c.Conn.SendMsg(m)
	}
	c.held = append(c.held, append([]byte(nil), m...))
	return nil
}

func (c *corkConn) SendMsgs(ms [][]byte) error { return sendEach(c, ms) }

func (c *corkConn) uncork() error {
	c.corked = false
	err := c.Conn.SendMsgs(c.held)
	c.held = nil
	return err
}

func (c *corkConn) Unwrap() wire.Conn { return c.Conn }

// requestsFirst dials, then sends a request open and every round's u
// matrix for y in one write, before reading the request header, so that
// every u matrix is already read ahead when the server reaches its
// round. It writes once setUp closes, when the server's set-up is done,
// so that no set-up read, which asks for no more than the set-up cap,
// takes in part of the request.
func requestsFirst(c *Client, conn wire.Conn, y []int64, setUp <-chan struct{}) (*ClientSession, []ot.Pending, error) {
	cork := &corkConn{Conn: conn}
	cs, err := c.Dial(cork)
	if err != nil {
		return nil, nil, err
	}
	<-setUp
	cork.corked = true
	if err := cs.tc.SendMsg([]byte{tagReqOpen}); err != nil {
		return nil, nil, err
	}
	pending := make([]ot.Pending, len(y))
	var u []byte
	for k, v := range y {
		u, pending[k] = ot.RequestLabels(cs.receiver, u[:0], circuit.Int64ToBits(v, cs.h.Width))
		if err := cs.tc.SendMsg(u); err != nil {
			return nil, nil, err
		}
	}
	return cs, pending, cork.uncork()
}

// requestsFirstRun is a one-row per-round client that sends its requests
// first (requestsFirst) and closes sent once they are written. Dial, one
// request, Close.
func requestsFirstRun(c *Client, conn wire.Conn, y []int64, setUp <-chan struct{}, sent chan<- struct{}) ([]int64, error) {
	cs, pending, err := requestsFirst(c, conn, y, setUp)
	close(sent)
	if err != nil {
		return nil, err
	}
	hdr, err := recvFrame(cs.tc, parseReqHeader)
	if err != nil {
		return nil, err
	}
	if hdr.OT != OTPerRound || hdr.Rows != 1 || hdr.Cols != len(y) {
		return nil, fmt.Errorf("requests-first client: got a %s request of %d×%d", hdr.OT, hdr.Rows, hdr.Cols)
	}
	ev, err := gc.NewEvaluator(gc.DefaultParams(), cs.macCkt)
	if err != nil {
		return nil, err
	}
	var res *gc.EvalResult
	for round := range y {
		in := chainRound{}
		if in.m, in.frame, err = recvMaterial(cs.tc); err != nil {
			return nil, err
		}
		if in.active, err = ot.FinishLabels(cs.receiver, pending[round]); err != nil {
			return nil, err
		}
		if res, err = in.eval(ev, res, 0, round); err != nil {
			return nil, err
		}
	}
	out := []int64{cs.decode(res.Outputs)}
	if err := cs.tc.SendMsg(appendResult(nil, out)); err != nil {
		return nil, err
	}
	return out, cs.Close()
}

// chainHitDigest is chainTranscriptDigest's counterpart for the chain
// fixture served from a pool entry built from engine seeds {33},
// recorded before either end corked its writes. It was re-pinned once,
// for protocol v8: IKNP row hash is fixed-key TCCR. Only the OT answer
// frames and the hello's version move.
const chainHitDigest = "f80479dd5ca5e9451f445690eccbd2fb55286199bb3e2416c30458eb1e94c2d9"

// TestPerRoundSyscalls runs the 1×64 b=8 chain fixture over loopback
// TCP with a read and write count under both ends, garbled inline and
// from a pool hit. Each side makes fewer than two reads per frame it
// receives (a stream conn that read header and body separately made
// exactly two), and the server's bytes are the chain transcript's. Both
// ends cork: the client's u-writer sends its 64 u matrices otBatch to a
// write, and the server writes whatever it has framed in one write,
// flushing before it would wait and at the cork's cap. Inline, it waits
// whenever its lane has no round ready, so how many rounds share a
// write follows how far the lane runs ahead (a plain run wrote the 64
// rounds in 5–18 writes, a -race run, whose lane falls behind, in
// 45–68); it never flushes more than twice a round. A pool hit has
// every round ready, so there the server's own choices alone set the
// count, which must be well under one write per row-0 round (each round
// is a material frame and an OT answer): a client whose u matrices all
// lead their rounds lets it flush on the cap alone, and the lookahead
// client makes it flush before each read of a u matrix not yet sent.
func TestPerRoundSyscalls(t *testing.T) {
	A, y := chainFixture()
	var want int64
	for j := range y {
		want += A[0][j] * y[j]
	}
	for _, tc := range []struct {
		client string
		hit    bool
	}{{"lookahead", false}, {"requests_first", false}, {"lookahead", true}, {"requests_first", true}} {
		name, digest := tc.client, chainTranscriptDigest
		if tc.hit {
			name, digest = tc.client+"/hit", chainHitDigest
		}
		t.Run(name, func(t *testing.T) {
			// The server opens the request once its set-up is done and,
			// for the requests-first client, once the request is sent.
			setUp, sent := make(chan struct{}), make(chan struct{})
			run := func(c *Client, conn wire.Conn, y []int64) ([]int64, error) {
				return requestsFirstRun(c, conn, y, setUp, sent)
			}
			if tc.client == "lookahead" {
				run = clientRun
				close(sent)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			drbg, err := label.NewDRBG([16]byte{11})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewServer(maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: drbg})
			if err != nil {
				t.Fatal(err)
			}
			var eng *precompute.Engine
			if tc.hit {
				seeds, err := label.NewDRBG([16]byte{33})
				if err != nil {
					t.Fatal(err)
				}
				if eng, err = precompute.New(precompute.Config{Sim: maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: seeds}, PoolSize: 1}); err != nil {
					t.Fatal(err)
				}
				defer eng.Stop()
				srv.WithPrecompute(eng)
				shape := precompute.Shape{Rows: 1, Cols: len(y), Width: 8, Signed: true, Mode: "matvec", OT: OTPerRound.String()}
				if err := eng.Prefill(shape, 1); err != nil {
					t.Fatal(err)
				}
			}
			var srvSock *readCounter
			var srvConn *writeCounter
			var setupWrites int
			var srvErr error
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := ln.Accept()
				if err != nil {
					srvErr = err
					return
				}
				srvSock = &readCounter{TCPConn: c.(*net.TCPConn)}
				srvConn = newWriteCounter(wire.NewStreamConn(srvSock))
				defer srvConn.Close()
				sess, err := srv.NewSession(srvConn, SessionConfig{GarbleWorkers: 2})
				setupWrites = srvConn.writes
				close(setUp)
				if err != nil {
					srvErr = err
					return
				}
				defer sess.Close()
				<-sent
				req := Request{Matrix: A, OT: OTPerRound}
				if _, srvErr = sess.Serve(req); srvErr == nil {
					if _, err := sess.Serve(req); !errors.Is(err, ErrSessionEnded) {
						srvErr = fmt.Errorf("second Serve: %v, want ErrSessionEnded", err)
					}
				}
			}()

			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			cliSock := &readCounter{TCPConn: nc.(*net.TCPConn)}
			cliConn := newWriteCounter(wire.NewStreamConn(cliSock))
			defer cliConn.Close()
			cdrbg, err := label.NewDRBG([16]byte{22})
			if err != nil {
				t.Fatal(err)
			}
			cli, err := NewClient(cdrbg)
			if err != nil {
				t.Fatal(err)
			}
			out, err := run(cli, cliConn, y)
			if err != nil {
				cliConn.Close() // ends the server's session too
			}
			wg.Wait()
			if err != nil || srvErr != nil {
				t.Fatalf("client %v, server %v", err, srvErr)
			}
			if out[0] != want {
				t.Fatalf("result %d, want %d", out[0], want)
			}
			if d := hex.EncodeToString(srvConn.digest.Sum(nil)); d != digest {
				t.Fatalf("server transcript digest %s, want %s", d, digest)
			}
			if hits, _ := eng.PoolStats(); tc.hit && hits != 1 {
				t.Fatalf("pool hits = %d, want 1", hits)
			}
			for _, side := range []struct {
				name  string
				reads int64
				recvd int
			}{{"server", srvSock.reads.Load(), srvConn.recvd}, {"client", cliSock.reads.Load(), cliConn.recvd}} {
				if side.reads >= 2*int64(side.recvd) {
					t.Errorf("%s: %d reads for %d frames received, want fewer than 2 a frame", side.name, side.reads, side.recvd)
				}
			}
			// Past the set-up and the request header, before the session end.
			roundWrites := srvConn.writes - setupWrites - 1
			t.Logf("server: %d frames in %d writes (%d in the rounds), %d reads for %d frames; client: %d frames in %d writes (%d of u matrices), %d reads for %d frames",
				srvConn.sent, srvConn.writes, roundWrites, srvSock.reads.Load(), srvConn.recvd,
				cliConn.sent, cliConn.writes, cliConn.uWrites, cliSock.reads.Load(), cliConn.recvd)
			bound := 2*len(y) + 1
			if tc.hit {
				bound = len(y) / 4
			}
			if roundWrites < 1 || roundWrites > bound {
				t.Fatalf("server wrote its %d rounds in %d writes, want 1 to %d", len(y), roundWrites, bound)
			}
			if bound := (len(y)+otBatch-1)/otBatch + 1; tc.client == "lookahead" && cliConn.uWrites > bound {
				t.Fatalf("client sent its %d u matrices in %d writes, want at most %d", len(y), cliConn.uWrites, bound)
			}
		})
	}
}

// TestPerRoundStallMidBatch: a client that sent every u matrix with its
// request open, then reads nothing past the request header, leaves the
// server blocked inside one of its corked writes (several rounds'
// material and OT answers, their arena buffers checked out) once the
// small socket buffers fill. The rounds phase's budget ends the write
// with ErrPhaseTimeout, every round write carried at least one whole
// round, and the buffers are back in the arena.
func TestPerRoundStallMidBatch(t *testing.T) {
	A, y := chainFixture()
	srv, o := faultMatrixServer(t, Timeouts{Handshake: 10 * time.Second, IO: 500 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	setUp, sent := make(chan struct{}), make(chan struct{})
	var srvConn *writeCounter
	var setupWrites, setupSent int
	srvDone := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			srvDone <- err
			return
		}
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
		srvConn = newWriteCounter(wire.NewStreamConn(c))
		defer srvConn.Close()
		sess, err := srv.NewSession(srvConn, SessionConfig{GarbleWorkers: 2})
		setupWrites, setupSent = srvConn.writes, srvConn.sent
		close(setUp)
		if err != nil {
			srvDone <- err
			return
		}
		<-sent
		_, err = sess.Serve(Request{Matrix: A, OT: OTPerRound})
		sess.Close() // before the report: the gauges are read on receipt
		srvDone <- err
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(4 << 10)
	cli, err := NewClient(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := requestsFirst(cli, wire.NewStreamConn(nc), y, setUp)
	close(sent)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recvFrame(cs.tc, parseReqHeader); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-srvDone:
		if !errors.Is(err, ErrPhaseTimeout) {
			t.Fatalf("server error = %v, want ErrPhaseTimeout", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the stalled batch never tripped the rounds deadline")
	}
	// Past the request header; the last write is the one that stalled.
	writes, frames := srvConn.writes-setupWrites-1, srvConn.sent-setupSent-1
	if writes < 1 || frames < 2*writes || frames >= 2*len(y) {
		t.Fatalf("%d round writes carried %d frames before the stall; want each to carry a whole round or more, and the stall before the last round",
			writes, frames)
	}
	if n := srv.arena.Outstanding(); n != 0 {
		t.Errorf("arena buffers outstanding after the timeout: %d", n)
	}
	if n := o.Metrics().Gauge("sessions_active", "").Value(); n != 0 {
		t.Errorf("sessions_active = %d after the timeout", n)
	}
}
