package protocol

// Both ends cork their writes: the client's u-writer sends otBatch u
// matrices a write, and the server frames rounds into a cork that it
// flushes before anything that may block. A cork that held a frame
// across a blocking call would deadlock a peer waiting for that frame,
// most surely over a synchronous transport or small socket buffers.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"maxelerator/internal/label"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/obs"
	"maxelerator/internal/precompute"
	"maxelerator/internal/wire"
)

// corkDigests are the SHA-256 of the cork fixture's frames, each behind
// its 4-byte big-endian length, as each end sent them, recorded before
// either end corked its writes: the server's, served inline and from a
// pool hit, and the client's, which a hit does not change. They were
// re-pinned once, for protocol v8: IKNP row hash is fixed-key TCCR. The
// server's OT answer frames move, and the hello and its ack carry
// version 8. They were re-pinned a second time for protocol v9: every
// table's row-count byte is stripped from the material frames, the
// header carries it once, and the hello and its ack carry version 9;
// TestV9TranscriptIsV8Stripped and these runs' v8 digests show that
// nothing else moved.
var corkDigests = map[string]string{
	"per-round/server":     "eb034d840e200217e55b4c8709e4d2242156db5051443f89707e593bf2c0fb6f",
	"per-round/server/hit": "84992db5a3dbf7fc92069d6b4d33904e359f3c0668d8555da0df6bbecdec77b3",
	"per-round/client":     "182572afe40612055fd23879591d06b0c9f568fd0806646a6232c9177601dd4a",
	"batched/server":       "0eb4213cd4fb8cefdf6e2710c729e5d9465fccbf7ca9eeac6f3fb52e4a5d3927",
	"batched/server/hit":   "c85364f025a208cc3310f7918cd43360bb4f1f747ac895f9c7a5269ec660b0fd",
	"batched/client":       "5b3da4c0308c896d3d495a224512a48c667e8ffb52dcde995599c0fa687fc23d",
}

// corkFixture is a 4×24 request: 24 row-0 rounds are three u batches
// and, per-round, more than a cork's 32 frames.
func corkFixture() ([][]int64, []int64) {
	A := make([][]int64, 4)
	y := make([]int64, 24)
	for j := range y {
		y[j] = int64((j*29+3)%256 - 128)
	}
	for i := range A {
		A[i] = make([]int64, len(y))
		for j := range A[i] {
			A[i][j] = int64((i*41+j*17)%256 - 128)
		}
	}
	return A, y
}

// tcpPair is a loopback TCP connection whose ends have 4 KiB send
// buffers, smaller than one material frame, and 16 KiB receive buffers:
// together less than a full cork, so a cork's write waits for the peer
// to read. Loopback's segment size is far larger than such a window, so
// a write that fills it can wait out a ≈ 200 ms window probe: with 4 KiB
// receive buffers a request takes seconds even uncorked, and here a
// lockstep client's request took ≈ 2 s, stalled ≈ 210 ms at a time while
// the later rows' corks went out, so that client runs over the pipes
// only.
func tcpPair(t *testing.T) (srv, cli wire.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ac, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []net.Conn{nc, ac} {
		c.(*net.TCPConn).SetReadBuffer(16 << 10)
		c.(*net.TCPConn).SetWriteBuffer(4 << 10)
	}
	return wire.NewStreamConn(ac), wire.NewStreamConn(nc)
}

// TestCorkNeverSpansBlockingCall serves the cork fixture per-round and
// batched, inline on 1, 2 and 4 lanes and from a pool hit, over
// wire.Pipe, over net.Pipe (synchronous: a write waits for the peer's
// read) and over loopback TCP with small socket buffers. Per-round
// requests are served to the lookahead client and, over the pipes, to a
// lockstep one, which sends round k's u matrix only once it has round
// k's material.
// Every request must finish, with the right result, each end's bytes
// those of the uncorked endpoints, and every arena buffer back.
func TestCorkNeverSpansBlockingCall(t *testing.T) {
	A, y := corkFixture()
	want := make([]int64, len(A))
	for i, row := range A {
		for j, a := range row {
			want[i] += a * y[j]
		}
	}
	transports := []struct {
		name  string
		conns func(*testing.T) (wire.Conn, wire.Conn)
	}{
		{"wire.Pipe", func(*testing.T) (wire.Conn, wire.Conn) { return wire.Pipe() }},
		{"net.Pipe", func(*testing.T) (wire.Conn, wire.Conn) {
			a, b := net.Pipe()
			return wire.NewStreamConn(a), wire.NewStreamConn(b)
		}},
		{"tcp-4KiB", tcpPair},
	}
	clients := []struct {
		name string
		mode OTMode
		run  func(*Client, wire.Conn, []int64) ([]int64, error)
	}{
		{"per-round", OTPerRound, clientRun},
		{"per-round-lockstep", OTPerRound, lockstepRun},
		{"batched", OTBatched, clientRun},
	}
	for _, tr := range transports {
		for _, c := range clients {
			if tr.name == "tcp-4KiB" && c.name == "per-round-lockstep" {
				continue // slow, not stuck: see tcpPair
			}
			mode := c.mode
			for _, lanes := range []int{1, 2, 4, 0} { // 0: a pool hit
				name := fmt.Sprintf("%s/%s/lanes=%d", tr.name, c.name, lanes)
				if lanes == 0 {
					name = fmt.Sprintf("%s/%s/hit", tr.name, c.name)
				}
				t.Run(name, func(t *testing.T) {
					srvConn, cliConn := tr.conns(t)
					srvW, cliW := corkRun(t, srvConn, cliConn, A, y, want, mode, lanes, c.run)
					srvD, cliD := hex.EncodeToString(srvW.digest.Sum(nil)), hex.EncodeToString(cliW.digest.Sum(nil))
					key := mode.String() + "/server"
					if lanes == 0 {
						key += "/hit"
					}
					checkV8(t, key, srvW.v8)
					checkV8(t, mode.String()+"/client", cliW.v8)
					if srvD != corkDigests[key] {
						t.Errorf("server transcript digest %s, want %s", srvD, corkDigests[key])
					}
					if cliD != corkDigests[mode.String()+"/client"] {
						t.Errorf("client transcript digest %s, want %s", cliD, corkDigests[mode.String()+"/client"])
					}
				})
			}
		}
	}
}

// corkRun serves one seeded request of A on a fresh session over srv
// (server DRBG {11}; lanes 0 takes it from a pool entry built from
// engine seeds {33}) to a client run over cli (client DRBG {22}) that
// evaluates y, checks the result and the server's arena, and returns
// the write counters that hashed the frames each end sent. A run that has not finished
// in 20 s closes both conns and fails.
func corkRun(t *testing.T, srv, cli wire.Conn, A [][]int64, y, want []int64, mode OTMode, lanes int,
	run func(*Client, wire.Conn, []int64) ([]int64, error)) (srvW, cliW *writeCounter) {
	t.Helper()
	cfg := maxsim.Config{Width: 8, AccWidth: 24, Signed: true}
	drbg, err := label.NewDRBG([16]byte{11})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rand = drbg
	server, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	server.WithObs(obs.New(2))
	var eng *precompute.Engine
	if lanes == 0 {
		seeds, err := label.NewDRBG([16]byte{33})
		if err != nil {
			t.Fatal(err)
		}
		if eng, err = precompute.New(precompute.Config{Sim: maxsim.Config{Width: 8, AccWidth: 24, Signed: true, Rand: seeds}, PoolSize: 1}); err != nil {
			t.Fatal(err)
		}
		defer eng.Stop()
		server.WithPrecompute(eng)
		shape := precompute.Shape{Rows: len(A), Cols: len(y), Width: 8, Signed: true, Mode: "matvec", OT: mode.String()}
		if err := eng.Prefill(shape, 1); err != nil {
			t.Fatal(err)
		}
	}
	cdrbg, err := label.NewDRBG([16]byte{22})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(cdrbg)
	if err != nil {
		t.Fatal(err)
	}

	srvW, cliW = newWriteCounter(srv), newWriteCounter(cli)
	srvDone := make(chan error, 1)
	go func() {
		defer srv.Close()
		_, err := serveOne(server, srvW, SessionConfig{GarbleWorkers: lanes}, Request{Matrix: A, OT: mode})
		srvDone <- err
	}()
	var out []int64
	var cliErr error
	cliDone := make(chan struct{})
	go func() {
		defer close(cliDone)
		out, cliErr = run(client, cliW, y)
	}()
	select {
	case <-cliDone:
	case <-time.After(20 * time.Second):
		srv.Close()
		cli.Close()
		<-cliDone
		t.Fatalf("the request had not finished after 20 s: client %v", cliErr)
	}
	cli.Close()
	if err := <-srvDone; err != nil || cliErr != nil {
		t.Fatalf("server %v, client %v", err, cliErr)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("row %d = %d, want %d", i, out[i], want[i])
		}
	}
	if lanes == 0 {
		if hits, _ := eng.PoolStats(); hits != 1 {
			t.Fatalf("pool hits = %d, want 1", hits)
		}
	}
	if n := server.ArenaOutstanding(); n != 0 {
		t.Fatalf("arena buffers outstanding: %d", n)
	}
	return srvW, cliW
}

// TestCorkFlushesBeforeLaneWait: the cork leaves as soon as the session
// goroutine finds the next round's lane queue empty, not only when it
// must read from the client. A batched 2×3 request on one lane corks
// row 0's three material frames after its one OT and row 1's round 0,
// and the round hook then holds the garbling of row 1's round 1 until
// the conn has carried a material frame. A cork that waited on the lane
// would hold those frames until the hook's 5 s bound expired.
func TestCorkFlushesBeforeLaneWait(t *testing.T) {
	A := [][]int64{{1, -2, 3}, {4, 5, -6}}
	y := []int64{7, -8, 9}
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
	defer b.Close()
	conn := &materialWatchConn{Conn: a, first: make(chan struct{})}
	var early atomic.Bool
	garbleRoundTestHook = func(row, round int) {
		if row != 1 || round != 0 {
			return
		}
		select {
		case <-conn.first:
			early.Store(true)
		case <-time.After(5 * time.Second):
		}
	}
	defer func() { garbleRoundTestHook = nil }()
	srvDone := make(chan error, 1)
	go func() {
		_, err := serveOne(srv, conn, SessionConfig{GarbleWorkers: 1}, Request{Matrix: A, OT: OTBatched})
		srvDone <- err
	}()
	out, err := clientRun(cli, b, y)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-srvDone; err != nil {
		t.Fatal(err)
	}
	if want := []int64{1*7 + -2*-8 + 3*9, 4*7 + 5*-8 + -6*9}; !slices.Equal(out, want) {
		t.Fatalf("result %v, want %v", out, want)
	}
	if !early.Load() {
		t.Fatal("no material frame had left while the session goroutine waited for row 1's round 1")
	}
}
