// Command maxcli is the client (evaluator) of Fig. 1: it connects to a
// maxd server, obtains its input-wire labels through IKNP oblivious
// transfer, evaluates the streamed garbled tables round by round, and
// prints the decoded matrix-vector product — without ever revealing
// its input vector to the server.
//
// Usage:
//
//	maxcli -addr 127.0.0.1:7700 -b 16 -frac 6 -vector "1.5,-2.25,0.5,1"
//	maxcli -addr 127.0.0.1:7700 -vector-file v.json
//	maxcli -addr 127.0.0.1:7700 -vector-file batch.json   # [[...],[...]]
//
// A vector file may hold one vector ([1, 2.5]) or a batch of vectors
// ([[1, 2.5], [0.5, -1]]). A batch runs every vector over one
// multiplexed connection — one handshake and one OT setup amortized
// across all requests.
//
// -handshake-timeout and -io-timeout bound each wire operation of the
// connection-setup and steady-state phases respectively, so a stalled
// server costs one timeout instead of a hung client; zero disables.
//
// Transient failures — a dropped connection, a deadline expiry, or a
// BUSY rejection from a loaded server — are retried transparently:
// -retries bounds the extra attempts per request and -retry-backoff
// the base of the full-jitter exponential backoff between them. A
// reconnect resumes the batch at the failed vector (finished results
// are never re-run); a request that exhausts its retries is reported
// and the batch continues, with a nonzero exit at the end.
//
// When -addr points at a maxgw fleet router rather than a single maxd,
// -hint-rows opens the session with a shape-hint preface (rows ×
// vector-length at -b bits, per-round OT — the one mode a backend
// serves and advertises) so the router sends the session to a backend
// whose precompute pool is pre-garbled for that shape.
// The hint is advisory routing metadata only — a directly-dialed maxd
// skips it — and it is re-sent on every retry reconnect, so a retried
// session is routed the same way.
package main

import (
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"maxelerator/internal/fixed"
	"maxelerator/internal/protocol"
	"maxelerator/internal/protocol/retry"
	"maxelerator/internal/wire"
)

// cliConfig gathers every knob of one maxcli invocation.
type cliConfig struct {
	addr         string
	width, frac  int
	vec, vecFile string
	timeouts     protocol.Timeouts
	retries      int
	retryBackoff time.Duration
	hintRows     int
}

func main() {
	var cc cliConfig
	flag.StringVar(&cc.addr, "addr", "127.0.0.1:7700", "maxd server address")
	flag.IntVar(&cc.width, "b", 16, "operand bit-width (must match the server)")
	flag.IntVar(&cc.frac, "frac", 6, "fixed-point fraction bits (must match the server)")
	flag.StringVar(&cc.vec, "vector", "", "comma-separated client vector")
	flag.StringVar(&cc.vecFile, "vector-file", "", "JSON file with one client vector or a batch of vectors")
	flag.DurationVar(&cc.timeouts.Handshake, "handshake-timeout", 30*time.Second, "per-operation deadline for handshake and OT setup (0 = none)")
	flag.DurationVar(&cc.timeouts.IO, "io-timeout", 2*time.Minute, "per-operation deadline for steady-state request I/O (0 = none)")
	flag.IntVar(&cc.retries, "retries", 2, "extra attempts per request after a transient failure (0 = fail fast)")
	flag.DurationVar(&cc.retryBackoff, "retry-backoff", 100*time.Millisecond, "base backoff before the first retry (doubles per retry, full jitter)")
	flag.IntVar(&cc.hintRows, "hint-rows", 0, "open with a shape hint for a matrix of this many rows, so a maxgw router sends the session to a backend advertising that shape (0 = no hint)")
	flag.Parse()

	if err := run(cc); err != nil {
		fmt.Fprintln(os.Stderr, "maxcli:", err)
		os.Exit(1)
	}
}

func parseVector(vec, vecFile string) ([]float64, error) {
	vs, err := parseVectors(vec, vecFile)
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// parseVectors reads the request batch: an inline -vector is one
// request; a -vector-file holds either one vector or an array of them.
func parseVectors(vec, vecFile string) ([][]float64, error) {
	switch {
	case vec != "":
		parts := strings.Split(vec, ",")
		out := make([]float64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return nil, fmt.Errorf("element %d: %w", i, err)
			}
			out[i] = v
		}
		return [][]float64{out}, nil
	case vecFile != "":
		data, err := os.ReadFile(vecFile)
		if err != nil {
			return nil, err
		}
		var batch [][]float64
		if err := json.Unmarshal(data, &batch); err == nil {
			if len(batch) == 0 {
				return nil, fmt.Errorf("vector file holds an empty batch")
			}
			return batch, nil
		}
		var single []float64
		if err := json.Unmarshal(data, &single); err != nil {
			return nil, fmt.Errorf("parsing vector file: %w", err)
		}
		return [][]float64{single}, nil
	default:
		return nil, fmt.Errorf("either -vector or -vector-file is required")
	}
}

func run(cc cliConfig) error {
	f := fixed.Format{Width: cc.width, Frac: cc.frac}
	if err := f.Validate(); err != nil {
		return err
	}
	vs, err := parseVectors(cc.vec, cc.vecFile)
	if err != nil {
		return err
	}
	raws := make([][]int64, len(vs))
	for i, xs := range vs {
		raw, err := f.EncodeVector(xs)
		if err != nil {
			return fmt.Errorf("vector %d: %w", i, err)
		}
		raws[i] = raw
	}

	cli, err := protocol.NewClient(rand.Reader)
	if err != nil {
		return err
	}
	cli.WithTimeouts(cc.timeouts)
	if cc.hintRows > 0 {
		cli.WithShapeHint(protocol.ShapeHint{
			Rows: cc.hintRows, Cols: len(raws[0]), Width: cc.width,
			Signed: true, Mode: "matvec", OT: protocol.OTPerRound.String(),
		})
	}
	// One session for the whole batch: handshake and OT setup are paid
	// once, each vector is one multiplexed request with fresh labels.
	// The ReDialer re-establishes the session on a transient failure
	// (disconnect, timeout, BUSY) and replays only the failed vector —
	// completed results are never re-run.
	rd, err := retry.NewReDialer(cli, func() (wire.Conn, error) {
		nc, err := net.Dial("tcp", cc.addr)
		if err != nil {
			return nil, err
		}
		return wire.NewStreamConn(nc), nil
	}, retry.Policy{MaxAttempts: cc.retries + 1, BaseBackoff: cc.retryBackoff})
	if err != nil {
		return err
	}
	defer rd.Close()

	failed := 0
	for r, raw := range raws {
		out, err := rd.Do(raw)
		if err != nil {
			// A fatal error (version mismatch, crypto failure) sinks the
			// whole batch: every later vector would hit the same wall.
			// An exhausted retry budget is a per-item outcome: report it
			// and keep going.
			if !retry.Retryable(err) {
				return fmt.Errorf("request %d: %w", r, err)
			}
			failed++
			fmt.Fprintf(os.Stderr, "maxcli: request %d failed: %v\n", r, err)
			continue
		}
		for i, v := range out {
			if len(raws) > 1 {
				fmt.Printf("y%d[%d] = %v\n", r, i, f.DecodeProduct(v))
			} else {
				fmt.Printf("y[%d] = %v\n", i, f.DecodeProduct(v))
			}
		}
	}
	if err := rd.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "maxcli: closing session: %v\n", err)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d requests failed after retries", failed, len(raws))
	}
	return nil
}
