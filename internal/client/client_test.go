package client_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/lsm"
	"repro/internal/resp"
	"repro/internal/server"
	"repro/internal/shard"
)

func startServer(t *testing.T) string {
	t.Helper()
	opts := lsm.TriadOptions(nil)
	opts.MemtableBytes = 256 << 10
	db, err := shard.Open(shard.Options{Shards: 2, Engine: opts, NewFS: shard.MemFS()})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return ln.Addr().String()
}

// fakeServer accepts one connection on loopback, reads one command and
// hands the connection to reply, which scripts the server's answer.
func fakeServer(t *testing.T, reply func(nc net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		if _, err := resp.NewReader(nc).ReadCommand(); err != nil {
			return
		}
		reply(nc)
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return ln.Addr().String()
}

// TestScanContStillTalksToRealServer: ScanCont resumes a cursor opened by
// ScanOpen against a real server, page after page, to DoneCursor.
func TestScanContStillTalksToRealServer(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 25
	for i := 0; i < n; i++ {
		if err := c.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	cursor, keys, _, err := c.ScanOpen(nil, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	for pages := 1; cursor != client.DoneCursor; pages++ {
		if pages > n {
			t.Fatalf("cursor %q never finished", cursor)
		}
		var ks [][]byte
		cursor, ks, _, err = c.ScanCont(cursor, 10)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, ks...)
	}
	if len(keys) != n || string(keys[n-1]) != fmt.Sprintf("k%02d", n-1) {
		t.Fatalf("paged %d keys, last %q; want %d", len(keys), keys[len(keys)-1], n)
	}
}

// TestScanContNoRetryPermanent: a connection the server drops surfaces
// as ScanCont's error at once; nothing is retried or resent.
func TestScanContNoRetryPermanent(t *testing.T) {
	addr := fakeServer(t, func(net.Conn) {}) // hangs up without a reply
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, _, _, err := c.ScanCont("c7", 10); !errors.Is(err, io.EOF) {
		t.Fatalf("ScanCont on a dropped connection = %v, want EOF", err)
	}
}

// TestScanContNoRetryMidReply: a reply torn partway through surfaces as
// an error, never as a page parsed from half a reply.
func TestScanContNoRetryMidReply(t *testing.T) {
	addr := fakeServer(t, func(nc net.Conn) {
		io.WriteString(nc, "*3\r\n$2\r\nc7\r\n$2\r\nk") // cut inside the key
	})
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, keys, _, err := c.ScanCont("c7", 10); err == nil || keys != nil {
		t.Fatalf("ScanCont on a torn reply = %q, %v; want no keys and an error", keys, err)
	}
}

// TestDoRejectsMidPipeline: mixing Do into an unfinished pipeline is a
// client-side error, not silent reply skew.
func TestDoRejectsMidPipeline(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send("SET", []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do("GET", []byte("a")); err == nil {
		t.Fatal("Do mid-pipeline should fail")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Receive(); err != nil {
		t.Fatal(err)
	}
	// Pipeline settled: Do works again.
	if _, err := c.Do("GET", []byte("a")); err != nil {
		t.Fatal(err)
	}
}

// TestServerErrorMapping: error replies surface as ServerError and the
// connection remains usable.
func TestServerErrorMapping(t *testing.T) {
	addr := startServer(t)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Do("GET") // wrong arity
	se, ok := err.(client.ServerError)
	if !ok {
		t.Fatalf("got %T %v, want ServerError", err, err)
	}
	if se.Error() == "" {
		t.Fatal("empty error text")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection broken after server error: %v", err)
	}
}
