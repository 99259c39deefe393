// Networked secure matrix-vector product: the full Fig. 1 system in
// one binary. A garbler server (host CPU + accelerator simulator) and
// an evaluator client run in separate goroutines connected over a real
// TCP socket on localhost, with IKNP oblivious transfer for the
// client's input labels and round-by-round streaming of garbled
// tables.
//
// The connection is a multiplexed session: the version handshake
// and the OT-extension setup (the public-key base-OT phase)
// are paid once, then three feature vectors are evaluated as three
// requests over the same connection — each with fresh wire labels —
// while the server garbles matrix rows on a parallel worker pool.
//
//	go run ./examples/matmul_network
package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"log"
	"net"

	"maxelerator/internal/fixed"
	"maxelerator/internal/maxsim"
	"maxelerator/internal/protocol"
	"maxelerator/internal/report"
	"maxelerator/internal/wire"
)

func main() {
	f := fixed.Format{Width: 16, Frac: 6}

	// Server's private model.
	model := [][]float64{
		{0.50, -1.25, 2.00},
		{1.75, 0.25, -0.50},
		{-2.25, 1.00, 0.75},
		{0.30, 0.60, 0.90},
	}
	// Client's private feature batch: one request per vector, all over
	// one multiplexed session.
	batch := [][]float64{
		{1.5, -2.0, 0.25},
		{-0.75, 0.5, 3.0},
		{2.25, 1.0, -1.5},
	}

	modelRaw := make([][]int64, len(model))
	for i, row := range model {
		r, err := f.EncodeVector(row)
		if err != nil {
			log.Fatal(err)
		}
		modelRaw[i] = r
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	fmt.Printf("garbler server listening on %s\n", ln.Addr())

	type serverDone struct {
		stats    protocol.Stats
		requests int
		err      error
	}
	done := make(chan serverDone, 1)
	go func() {
		srv, err := protocol.NewServer(maxsim.Config{Width: f.Width, AccWidth: 2 * f.Width, Signed: true})
		if err != nil {
			done <- serverDone{err: err}
			return
		}
		c, err := ln.Accept()
		if err != nil {
			done <- serverDone{err: err}
			return
		}
		conn := wire.NewStreamConn(c)
		defer conn.Close()
		// One session, many requests: the handshake and OT setup run
		// here, then Serve handles one garbled mat-vec per request with
		// a 4-worker row-garbling pool, until the client ends the
		// session.
		sess, err := srv.NewSession(conn, protocol.SessionConfig{GarbleWorkers: 4})
		if err != nil {
			done <- serverDone{err: err}
			return
		}
		defer sess.Close()
		var total protocol.Stats
		for {
			resp, err := sess.Serve(protocol.Request{Matrix: modelRaw})
			if errors.Is(err, protocol.ErrSessionEnded) {
				done <- serverDone{stats: total, requests: sess.Requests()}
				return
			}
			if err != nil {
				done <- serverDone{err: err}
				return
			}
			total.Add(resp.Stats)
		}
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	conn := wire.NewCounting(wire.NewStreamConn(nc))
	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	cs, err := cli.Dial(conn)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nsecure A·x over TCP with IKNP oblivious transfer (one session, 3 requests):")
	for r, features := range batch {
		featRaw, err := f.EncodeVector(features)
		if err != nil {
			log.Fatal(err)
		}
		out, err := cs.Do(featRaw)
		if err != nil {
			log.Fatalf("request %d: %v", r, err)
		}
		for i, v := range out {
			var plain float64
			for j := range features {
				plain += model[i][j] * features[j]
			}
			got := f.DecodeProduct(v)
			fmt.Printf("  y%d[%d] = %8.4f   (plaintext %8.4f)\n", r, i, got, plain)
			// Q6 operand rounding error scales with the feature
			// magnitude; a garbling fault would be off by whole units.
			if diff := got - plain; diff > 0.05 || diff < -0.05 {
				log.Fatalf("request %d row %d deviates beyond quantisation error", r, i)
			}
		}
	}
	if err := cs.Close(); err != nil {
		log.Fatal(err)
	}
	srvRes := <-done
	if srvRes.err != nil {
		log.Fatal(srvRes.err)
	}
	conn.Close()

	sent, recv, sMsgs, rMsgs := conn.Totals()
	st := srvRes.stats
	fmt.Println("\nsession accounting:")
	fmt.Printf("  requests served   : %d (one handshake, one OT setup)\n", srvRes.requests)
	fmt.Printf("  client traffic    : %d B sent (%d msgs), %d B received (%d msgs)\n", sent, sMsgs, recv, rMsgs)
	fmt.Printf("  MAC rounds        : %d\n", st.MACs)
	fmt.Printf("  garbled tables    : %d (%d B)\n", st.TablesGarbled, st.TableBytes)
	fmt.Printf("  modelled FPGA time: %s (+%s PCIe)\n", report.Dur(st.ModeledTime), report.Dur(st.PCIeTime))
	fmt.Println("\nall results verified against plaintext ✓")
}
