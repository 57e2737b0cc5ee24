package snapfmt

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

const testMagic = "h6test01"

// testStream frames section 1 (4 payload bytes) and section 2 (empty).
func testStream(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, testMagic, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []struct {
		id      uint32
		payload []byte
	}{{1, []byte("abcd")}, {2, nil}} {
		if err := sw.Begin(sec.id, uint64(len(sec.payload))); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Write(sec.payload); err != nil {
			t.Fatal(err)
		}
		if err := sw.End(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExpect pins the one fixed-order section check every format's
// reader goes through: the right id and size open the section, AnySize
// reports the declared size, and another id, another size, the end
// marker or a cut header are each an error that is never io.EOF.
func TestExpect(t *testing.T) {
	raw := testStream(t)
	open := func(b []byte) *Reader {
		sr, err := NewReader(bytes.NewReader(b), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		return sr
	}
	skip := func(sr *Reader, id uint32) {
		size, err := sr.Expect(id, AnySize)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.CopyN(io.Discard, sr, int64(size)); err != nil {
			t.Fatal(err)
		}
		if err := sr.End(); err != nil {
			t.Fatal(err)
		}
	}

	sr := open(raw)
	if size, err := sr.Expect(1, 4); err != nil || size != 4 {
		t.Fatalf("Expect(1, 4) = %d, %v", size, err)
	}
	if size, err := open(raw).Expect(1, AnySize); err != nil || size != 4 {
		t.Fatalf("Expect(1, AnySize) = %d, %v", size, err)
	}

	sr = open(raw)
	skip(sr, 1)
	skip(sr, 2)
	_, atEnd := sr.Expect(3, AnySize)

	for name, tc := range map[string]struct {
		err  error
		want string
	}{
		"another id":   {second(open(raw).Expect(2, 4)), "section 1 where 2 expected"},
		"another size": {second(open(raw).Expect(1, 5)), "section 1 is 4 bytes, want 5"},
		"end marker":   {atEnd, "stream ends before section 3"},
		"cut header":   {second(open(raw[:MagicLen+4+7]).Expect(1, 4)), io.ErrUnexpectedEOF.Error()},
	} {
		if tc.err == nil || errors.Is(tc.err, io.EOF) || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, tc.err, tc.want)
		}
	}
}

func second(_ uint64, err error) error { return err }
