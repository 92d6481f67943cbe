package harness

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/workload"
)

// netDepth is the per-connection pipeline depth of NetRun: deep enough
// that the server's group-commit window always has company, shallow
// enough that per-op latency still means something.
const netDepth = 16

// NetRun starts a real server over an in-memory sharded store and
// drives a 90% SET / 10% GET workload through conns pipelined client
// connections over loopback TCP, reporting kops/s and per-op latency.
// The tracing overhead benchmark uses it to compare -trace-sample rates.
func NetRun(s Scale, shards, conns int, traceSample float64) (Result, error) {
	db, err := shard.Open(shard.Options{
		Shards: shards,
		Engine: shard.DivideBudgets(s.engine("triad"), shards),
		NewFS:  shard.MemFS(),
	})
	if err != nil {
		return Result{}, err
	}
	defer db.Close()

	mix := workload.Mix{Dist: s.ws3(), ReadFraction: 0.1}
	if err := prepopulate(db.Put, Spec{Mix: mix, PrepopulateFraction: 0.5, Seed: 1}); err != nil {
		return Result{}, err
	}
	if err := db.Flush(); err != nil {
		return Result{}, err
	}
	if err := db.CompactAll(); err != nil {
		return Result{}, err
	}

	srv := server.New(db, server.Config{TraceSample: traceSample})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		srv.Shutdown(ctx)
		cancel()
		<-serveErr
	}()

	perConn := s.Ops / int64(conns)
	rec := obs.NewHist()
	errCh := make(chan error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	before := db.Metrics()
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := client.Dial(ln.Addr().String())
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			stream := mix.NewStream(1 + int64(i)*7919)
			var sentAt [netDepth]time.Time
			for done := int64(0); done < perConn; {
				depth := int64(netDepth)
				if left := perConn - done; left < depth {
					depth = left
				}
				for j := int64(0); j < depth; j++ {
					op := stream.Next()
					sentAt[j] = time.Now()
					if op.Read {
						err = c.Send("GET", op.Key)
					} else {
						err = c.Send("SET", op.Key, op.Value)
					}
					if err != nil {
						errCh <- err
						return
					}
				}
				if err := c.Flush(); err != nil {
					errCh <- err
					return
				}
				for j := int64(0); j < depth; j++ {
					if _, err := c.Receive(); err != nil {
						errCh <- err
						return
					}
					rec.Record(time.Since(sentAt[j]))
				}
				done += depth
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := db.Metrics().Sub(before)
	select {
	case err := <-errCh:
		return Result{}, err
	default:
	}
	// Every worker closed its connection; the server drops each once it
	// reads the close. One it still counts is a connection left open.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		open, _, _ := srv.ConnStats()
		if open == 0 {
			break
		}
		if time.Now().After(deadline) {
			return Result{}, fmt.Errorf("harness: %d client connections still open after the run", open)
		}
	}

	totalOps := perConn * int64(conns)
	res := Result{
		Name:    fmt.Sprintf("net c=%d", conns),
		Threads: conns,
		Ops:     totalOps,
		Elapsed: elapsed,
		KOPS:    float64(totalOps) / elapsed.Seconds() / 1000,
		WA:      snap.WriteAmplification(),
		RA:      snap.ReadAmplification(),
		Snap:    snap,
	}
	res.Lat = rec.Snapshot()
	res.P50 = res.Lat.Quantile(0.50)
	res.P99 = res.Lat.Quantile(0.99)
	res.P999 = res.Lat.Quantile(0.999)
	return res, nil
}
