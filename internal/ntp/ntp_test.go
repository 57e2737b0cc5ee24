package ntp

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimestampRoundTrip(t *testing.T) {
	times := []time.Time{
		time.Date(2022, 1, 25, 0, 0, 0, 0, time.UTC),
		time.Date(2022, 8, 31, 23, 59, 59, 999_000_000, time.UTC),
		time.Unix(0, 0).UTC(),
		time.Date(2036, 2, 7, 6, 28, 15, 0, time.UTC), // near NTP era end
	}
	for _, in := range times {
		out := TimestampFromTime(in).Time()
		if d := out.Sub(in); d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("round trip %v -> %v (delta %v)", in, out, d)
		}
	}
}

func TestTimestampZero(t *testing.T) {
	if ts := TimestampFromTime(time.Time{}); ts != 0 {
		t.Errorf("zero time: got %d", ts)
	}
	if !Timestamp(0).Time().IsZero() {
		t.Error("zero timestamp should map to zero time")
	}
}

func TestShortRoundTrip(t *testing.T) {
	cases := []time.Duration{0, time.Millisecond, time.Second, 2500 * time.Millisecond, time.Minute}
	for _, d := range cases {
		got := ShortFromDuration(d).Duration()
		if diff := got - d; diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("short round trip %v -> %v", d, got)
		}
	}
	if ShortFromDuration(-time.Second) != 0 {
		t.Error("negative duration should clamp to 0")
	}
	if ShortFromDuration(100000*time.Second) != Short(0xffffffff) {
		t.Error("huge duration should saturate")
	}
}

func TestPacketSerializeDecodeRoundTrip(t *testing.T) {
	f := func(leap, mode uint8, stratum uint8, poll, prec int8,
		delay, disp, refid uint32, rt, ot, rcv, xmt uint64) bool {
		in := Packet{
			Leap: LeapIndicator(leap % 4), Version: 4, Mode: Mode(mode % 8),
			Stratum: stratum, Poll: poll, Precision: prec,
			RootDelay: Short(delay), RootDispersion: Short(disp),
			ReferenceID: refid, ReferenceTime: Timestamp(rt),
			OriginTime: Timestamp(ot), ReceiveTime: Timestamp(rcv),
			TransmitTime: Timestamp(xmt),
		}
		var buf [PacketSize]byte
		if _, err := in.SerializeTo(buf[:]); err != nil {
			return false
		}
		var out Packet
		if err := out.DecodeFromBytes(buf[:]); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	var p Packet
	if err := p.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Error("short packet should fail")
	}
	// Version 0 is invalid.
	raw := make([]byte, PacketSize)
	raw[0] = 0x03 // LI=0, VN=0, Mode=3
	if err := p.DecodeFromBytes(raw); err == nil {
		t.Error("version 0 should fail")
	}
	// Version 7 is invalid.
	raw[0] = 7<<3 | 3
	if err := p.DecodeFromBytes(raw); err == nil {
		t.Error("version 7 should fail")
	}
}

func TestSerializeErrors(t *testing.T) {
	p := Packet{Version: 4, Mode: ModeClient}
	if _, err := p.SerializeTo(make([]byte, 10)); err == nil {
		t.Error("small buffer should fail")
	}
	p.Version = 9
	if _, err := p.SerializeTo(make([]byte, PacketSize)); err == nil {
		t.Error("bad version should fail")
	}
}

func TestServerReplySemantics(t *testing.T) {
	reqTime := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	req := Packet{Version: 4, Mode: ModeClient, TransmitTime: TimestampFromTime(reqTime)}
	recvAt := reqTime.Add(30 * time.Millisecond)
	sendAt := recvAt.Add(time.Millisecond)
	reply := NewServerReply(&req, recvAt, sendAt, 2, 0x42424242)
	if reply.Mode != ModeServer {
		t.Errorf("mode: got %v", reply.Mode)
	}
	if reply.Stratum != 2 {
		t.Errorf("stratum: got %d", reply.Stratum)
	}
	if reply.OriginTime != req.TransmitTime {
		t.Error("origin must echo client transmit")
	}
	if got := reply.ReceiveTime.Time(); !within(got, recvAt, time.Microsecond) {
		t.Errorf("receive time: got %v want %v", got, recvAt)
	}
}

func TestModeString(t *testing.T) {
	for m := Mode(0); m < 8; m++ {
		if m.String() == "" {
			t.Errorf("mode %d unnamed", m)
		}
	}
}

func within(a, b time.Time, eps time.Duration) bool {
	d := a.Sub(b)
	return d >= -eps && d <= eps
}

// Time converts an NTP timestamp to a time.Time (UTC). The zero timestamp
// maps to the zero time.
func (ts Timestamp) Time() time.Time {
	if ts == 0 {
		return time.Time{}
	}
	secs := int64(ts>>32) - ntpEpochOffset
	nanos := (uint64(ts&0xffffffff) * 1e9) >> 32
	return time.Unix(secs, int64(nanos)).UTC()
}

// Duration converts NTP short format to a duration.
func (s Short) Duration() time.Duration {
	secs := time.Duration(s>>16) * time.Second
	frac := time.Duration(uint64(s&0xffff) * uint64(time.Second) >> 16)
	return secs + frac
}

// BenchmarkPacketDecode measures the allocation-free decode path.
func BenchmarkPacketDecode(b *testing.B) {
	req := Packet{Version: 4, Mode: ModeClient, TransmitTime: TimestampFromTime(time.Now())}
	var buf [PacketSize]byte
	if _, err := req.SerializeTo(buf[:]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var p Packet
	for i := 0; i < b.N; i++ {
		if err := p.DecodeFromBytes(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketSerialize measures encode.
func BenchmarkPacketSerialize(b *testing.B) {
	p := NewServerReply(&Packet{Version: 4, Mode: ModeClient}, time.Now(), time.Now(), 2, 0x42)
	var buf [PacketSize]byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SerializeTo(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}
