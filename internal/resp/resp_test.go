package resp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
)

// encodeCommand renders args the way Writer.WriteCommand does and
// returns the bytes.
func encodeCommand(t *testing.T, args ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteCommand(args...); err != nil {
		t.Fatalf("WriteCommand: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

// TestCommandRoundTrip encodes every server command shape and decodes it
// back, byte for byte.
func TestCommandRoundTrip(t *testing.T) {
	cases := [][][]byte{
		{[]byte("PING")},
		{[]byte("GET"), []byte("key")},
		{[]byte("SET"), []byte("key"), []byte("value")},
		{[]byte("SET"), []byte("k"), {}}, // empty value
		{[]byte("DEL"), []byte("a"), []byte("b"), []byte("c")},
		{[]byte("MGET"), []byte("a"), []byte("b")},
		{[]byte("MSET"), []byte("a"), []byte("1"), []byte("b"), []byte("2")},
		{[]byte("SCAN"), []byte("a"), []byte("z"), []byte("10")},
		{[]byte("STATS")},
		{[]byte("FLUSH")},
		{[]byte("QUIT")},
		{[]byte("SET"), []byte("bin\x00\r\nkey"), []byte{0, 1, 2, 255}}, // binary-safe
	}
	for _, args := range cases {
		enc := encodeCommand(t, args...)
		got, err := NewReader(bytes.NewReader(enc)).ReadCommand()
		if err != nil {
			t.Fatalf("ReadCommand(%q): %v", enc, err)
		}
		if len(got) != len(args) {
			t.Fatalf("ReadCommand(%q): got %d args, want %d", enc, len(got), len(args))
		}
		for i := range args {
			if !bytes.Equal(got[i], args[i]) {
				t.Fatalf("arg %d: got %q, want %q", i, got[i], args[i])
			}
		}
	}
}

// TestInlineCommands covers the telnet-style framing.
func TestInlineCommands(t *testing.T) {
	r := NewReader(strings.NewReader("PING\r\n  GET  foo \nSET a b\r\n\r\n   \nQUIT\r\n"))
	want := [][]string{{"PING"}, {"GET", "foo"}, {"SET", "a", "b"}, {"QUIT"}}
	for _, w := range want {
		got, err := r.ReadCommand()
		if err != nil {
			t.Fatalf("ReadCommand: %v", err)
		}
		if len(got) != len(w) {
			t.Fatalf("got %d fields, want %v", len(got), w)
		}
		for i := range w {
			if string(got[i]) != w[i] {
				t.Fatalf("field %d: got %q, want %q", i, got[i], w[i])
			}
		}
	}
	if _, err := r.ReadCommand(); err != io.EOF {
		t.Fatalf("at end: got %v, want io.EOF", err)
	}
}

// TestReplyRoundTrip encodes every reply type and decodes it back.
func TestReplyRoundTrip(t *testing.T) {
	vals := []Value{
		Simple("OK"),
		Simple("PONG"),
		Error("ERR unknown command 'FOO'"),
		Int(0),
		Int(-42),
		Int(1 << 40),
		Bulk(nil),
		Bulk([]byte("hello")),
		Bulk([]byte{0, '\r', '\n', 255}),
		NullBulk(),
		Array(),
		{Type: TypeArray, Null: true},
		Array(Bulk([]byte("a")), NullBulk(), Int(7), Simple("x")),
		Array(Array(Bulk([]byte("nested"))), Int(1)),
	}
	for _, v := range vals {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteValue(v); err != nil {
			t.Fatalf("WriteValue(%+v): %v", v, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadReply()
		if err != nil {
			t.Fatalf("ReadReply(%q): %v", buf.Bytes(), err)
		}
		assertValueEqual(t, got, v)
	}
}

func assertValueEqual(t *testing.T, got, want Value) {
	t.Helper()
	if got.Type != want.Type || got.Null != want.Null || got.Int != want.Int {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if !bytes.Equal(got.Str, want.Str) {
		t.Fatalf("payload: got %q, want %q", got.Str, want.Str)
	}
	if len(got.Elems) != len(want.Elems) {
		t.Fatalf("elems: got %d, want %d", len(got.Elems), len(want.Elems))
	}
	for i := range want.Elems {
		assertValueEqual(t, got.Elems[i], want.Elems[i])
	}
}

// TestWriterHelpers checks WriteValue, once per reply type, and
// WriteBulk against exact wire bytes.
func TestWriterHelpers(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteValue(Simple("OK"))
	w.WriteValue(Error("ERR nope"))
	w.WriteValue(Int(12))
	w.WriteBulk([]byte("hi"))
	w.WriteValue(NullBulk())
	w.WriteValue(Array(Bulk(nil)))
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := "+OK\r\n-ERR nope\r\n:12\r\n$2\r\nhi\r\n$-1\r\n*1\r\n$0\r\n\r\n"
	if buf.String() != want {
		t.Fatalf("wire bytes:\n got %q\nwant %q", buf.String(), want)
	}
}

// TestWriterSanitizesLineReplies: CR/LF inside simple/error payloads
// must not desynchronize the framing.
func TestWriterSanitizesLineReplies(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteValue(Error("ERR bad\r\nkey"))
	w.Flush()
	if got, want := buf.String(), "-ERR bad  key\r\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestMalformedInputs feeds hostile byte streams; each must produce an
// error (never a panic, never a bogus success).
func TestMalformedInputs(t *testing.T) {
	cases := []string{
		"*-2\r\n",                      // negative multibulk
		"*1\r\n:5\r\n",                 // non-bulk inside command
		"*1\r\n$-1\r\n",                // null bulk inside command
		"*1\r\n$5\r\nab\r\n",           // short bulk body
		"*1\r\n$2\r\nabcd",             // bulk not CRLF-terminated
		"*1\r\n$2\r\nab!!",             // wrong terminator
		"*abc\r\n",                     // non-numeric length
		"*1\r\n$99999999999999999\r\n", // absurd bulk length
		"*99999999999\r\n",             // absurd arity
		"*1\n$1\na\n",                  // LF-only protocol lines
		"*2\r\n$1\r\na\r\n",            // truncated arity
		"*1\r\n",                       // missing element
		"*\r\n",                        // empty length
	}
	for _, in := range cases {
		_, err := NewReader(strings.NewReader(in)).ReadCommand()
		if err == nil {
			t.Fatalf("ReadCommand(%q): expected error", in)
		}
	}
	replies := []string{
		"?ok\r\n",  // unknown type byte
		":\r\n",    // empty integer
		":12a\r\n", // trailing garbage
		"$-2\r\n",  // invalid negative bulk
		"*-2\r\n",  // invalid negative array
		"+ok",      // no terminator
		"*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n:1\r\n", // too deep
	}
	for _, in := range replies {
		_, err := NewReader(strings.NewReader(in)).ReadReply()
		if err == nil {
			t.Fatalf("ReadReply(%q): expected error", in)
		}
	}
}

// TestCommandAggregateCap: per-element limits are not enough — the sum
// of a command's bulk payloads is capped too, so one command cannot
// buffer arbitrarily much before dispatch.
func TestCommandAggregateCap(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), MaxBulkLen)
	elem := append([]byte(fmt.Sprintf("$%d\r\n", MaxBulkLen)), append(chunk, '\r', '\n')...)
	n := MaxCommandBytes/MaxBulkLen + 1
	readers := []io.Reader{strings.NewReader(fmt.Sprintf("*%d\r\n", n))}
	for i := 0; i < n; i++ {
		readers = append(readers, bytes.NewReader(elem))
	}
	_, err := NewReader(io.MultiReader(readers...)).ReadCommand()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("oversized command: got %v, want protocol error", err)
	}
	if !strings.Contains(pe.Reason, "payload bytes") {
		t.Fatalf("unexpected reason %q", pe.Reason)
	}
}

// TestTruncationNeverPanics is the property test the fuzzers extend:
// every prefix of a valid conversation either decodes or errors cleanly.
func TestTruncationNeverPanics(t *testing.T) {
	full := encodeCommand(t, []byte("MSET"), []byte("key-one"), []byte("val"), []byte("key-two"), bytes.Repeat([]byte("v"), 300))
	for i := 0; i < len(full); i++ {
		if _, err := NewReader(bytes.NewReader(full[:i])).ReadCommand(); err == nil {
			t.Fatalf("prefix %d of %d decoded successfully", i, len(full))
		}
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.WriteValue(Array(Bulk([]byte("k")), NullBulk(), Int(3), Error("ERR x")))
	w.Flush()
	enc := buf.Bytes()
	for i := 0; i < len(enc); i++ {
		if _, err := NewReader(bytes.NewReader(enc[:i])).ReadReply(); err == nil {
			t.Fatalf("reply prefix %d of %d decoded successfully", i, len(enc))
		}
	}
}

// TestTruncationErrorKinds: a clean cut at a message boundary is io.EOF;
// a cut inside a message is io.ErrUnexpectedEOF or a protocol error —
// servers rely on the distinction for logging.
func TestTruncationErrorKinds(t *testing.T) {
	if _, err := NewReader(strings.NewReader("")).ReadCommand(); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	_, err := NewReader(strings.NewReader("*2\r\n$3\r\nGET\r\n")).ReadCommand()
	var pe *ProtocolError
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &pe) {
		t.Fatalf("mid-command cut: got %v", err)
	}
}

// FuzzReadCommand asserts the command decoder never panics and never
// allocates unbounded memory on arbitrary input.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("*1\r\n$1000000000\r\nx\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte{'*', 0xff, '\r', '\n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ { // bounded: a stream may hold many commands
			if _, err := r.ReadCommand(); err != nil {
				return
			}
		}
	})
}

// FuzzReadReply asserts the reply decoder never panics on arbitrary
// input.
func FuzzReadReply(f *testing.F) {
	f.Add([]byte("+OK\r\n"))
	f.Add([]byte("$-1\r\n"))
	f.Add([]byte("*2\r\n$1\r\na\r\n:4\r\n"))
	f.Add([]byte("*1000000000\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 64; i++ {
			if _, err := r.ReadReply(); err != nil {
				return
			}
		}
	})
}

// FuzzRoundTrip: any command the writer encodes, the reader must decode
// identically.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("GET"), []byte("key"), []byte("value"))
	f.Add([]byte{}, []byte{0, 1}, []byte("\r\n"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		args := [][]byte{a, b, c}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteCommand(args...); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		got, err := NewReader(bytes.NewReader(buf.Bytes())).ReadCommand()
		if err != nil {
			t.Fatalf("decode %q: %v", buf.Bytes(), err)
		}
		if len(got) != len(args) {
			t.Fatalf("got %d args, want %d", len(got), len(args))
		}
		for i := range args {
			if !bytes.Equal(got[i], args[i]) {
				t.Fatalf("arg %d: got %q, want %q", i, got[i], args[i])
			}
		}
	})
}
