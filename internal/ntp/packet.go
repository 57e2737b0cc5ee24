// Package ntp is the RFC 5905 packet codec: allocation-free
// decode/encode (gopacket's DecodingLayer idiom) and the server reply to
// a client request. The server that answers with it is ingestd's -ntp
// source, which stores each client's source address: the paper's whole
// methodology is "run NTP servers, record source addresses".
package ntp

import (
	"encoding/binary"
	"fmt"
	"time"
)

// PacketSize is the size of an NTP packet without extensions.
const PacketSize = 48

// LeapIndicator is the 2-bit leap second warning field.
type LeapIndicator uint8

// Leap indicator values (RFC 5905 §7.3).
const (
	LeapNone LeapIndicator = 0
)

// Mode is the 3-bit association mode.
type Mode uint8

// Association modes (RFC 5905 §7.3).
const (
	ModeSymActive  Mode = 1
	ModeSymPassive Mode = 2
	ModeClient     Mode = 3
	ModeServer     Mode = 4
	ModeBroadcast  Mode = 5
	ModeControl    Mode = 6
	ModePrivate    Mode = 7
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeSymActive:
		return "symmetric-active"
	case ModeSymPassive:
		return "symmetric-passive"
	case ModeClient:
		return "client"
	case ModeServer:
		return "server"
	case ModeBroadcast:
		return "broadcast"
	case ModeControl:
		return "control"
	case ModePrivate:
		return "private"
	default:
		return "reserved"
	}
}

// Timestamp is the 64-bit NTP timestamp: seconds since the NTP era origin
// (1 Jan 1900) in the top 32 bits, binary fraction in the bottom 32.
type Timestamp uint64

// ntpEpochOffset is the offset between the Unix and NTP epochs in seconds
// (70 years including 17 leap days).
const ntpEpochOffset = 2208988800

// TimestampFromTime converts a time.Time to NTP format.
func TimestampFromTime(t time.Time) Timestamp {
	if t.IsZero() {
		return 0
	}
	secs := uint64(t.Unix()) + ntpEpochOffset
	frac := uint64(t.Nanosecond()) * (1 << 32) / 1e9
	return Timestamp(secs<<32 | frac)
}

// Short is the 32-bit NTP short format (16.16 fixed point seconds) used
// for root delay and dispersion.
type Short uint32

// ShortFromDuration converts a duration to NTP short format, saturating.
func ShortFromDuration(d time.Duration) Short {
	if d < 0 {
		d = 0
	}
	secs := d / time.Second
	if secs > 0xffff {
		return Short(0xffffffff)
	}
	frac := uint64(d%time.Second) * (1 << 16) / uint64(time.Second)
	return Short(uint64(secs)<<16 | frac)
}

// Packet is one NTP packet in decoded form. Field names follow RFC 5905.
type Packet struct {
	Leap           LeapIndicator
	Version        uint8
	Mode           Mode
	Stratum        uint8
	Poll           int8
	Precision      int8
	RootDelay      Short
	RootDispersion Short
	ReferenceID    uint32
	ReferenceTime  Timestamp
	OriginTime     Timestamp
	ReceiveTime    Timestamp
	TransmitTime   Timestamp
}

// DecodeFromBytes parses a wire-format packet without allocating,
// mirroring gopacket's DecodingLayer contract. Extension fields and MACs
// beyond the first 48 bytes are ignored, as a time server may.
func (p *Packet) DecodeFromBytes(data []byte) error {
	if len(data) < PacketSize {
		return fmt.Errorf("ntp: packet too short: %d bytes", len(data))
	}
	p.Leap = LeapIndicator(data[0] >> 6)
	p.Version = data[0] >> 3 & 0x7
	p.Mode = Mode(data[0] & 0x7)
	if p.Version < 1 || p.Version > 4 {
		return fmt.Errorf("ntp: unsupported version %d", p.Version)
	}
	p.Stratum = data[1]
	p.Poll = int8(data[2])
	p.Precision = int8(data[3])
	p.RootDelay = Short(binary.BigEndian.Uint32(data[4:]))
	p.RootDispersion = Short(binary.BigEndian.Uint32(data[8:]))
	p.ReferenceID = binary.BigEndian.Uint32(data[12:])
	p.ReferenceTime = Timestamp(binary.BigEndian.Uint64(data[16:]))
	p.OriginTime = Timestamp(binary.BigEndian.Uint64(data[24:]))
	p.ReceiveTime = Timestamp(binary.BigEndian.Uint64(data[32:]))
	p.TransmitTime = Timestamp(binary.BigEndian.Uint64(data[40:]))
	return nil
}

// SerializeTo writes the packet into buf, which must be at least
// PacketSize bytes; it returns the number of bytes written.
func (p *Packet) SerializeTo(buf []byte) (int, error) {
	if len(buf) < PacketSize {
		return 0, fmt.Errorf("ntp: buffer too small: %d bytes", len(buf))
	}
	if p.Version < 1 || p.Version > 4 {
		return 0, fmt.Errorf("ntp: invalid version %d", p.Version)
	}
	buf[0] = byte(p.Leap)<<6 | p.Version<<3 | byte(p.Mode)
	buf[1] = p.Stratum
	buf[2] = byte(p.Poll)
	buf[3] = byte(p.Precision)
	binary.BigEndian.PutUint32(buf[4:], uint32(p.RootDelay))
	binary.BigEndian.PutUint32(buf[8:], uint32(p.RootDispersion))
	binary.BigEndian.PutUint32(buf[12:], p.ReferenceID)
	binary.BigEndian.PutUint64(buf[16:], uint64(p.ReferenceTime))
	binary.BigEndian.PutUint64(buf[24:], uint64(p.OriginTime))
	binary.BigEndian.PutUint64(buf[32:], uint64(p.ReceiveTime))
	binary.BigEndian.PutUint64(buf[40:], uint64(p.TransmitTime))
	return PacketSize, nil
}

// NewServerReply builds the server response to a request, per RFC 5905:
// the client's transmit timestamp is echoed as the origin, the server
// stamps receive/transmit times, and stratum/reference describe the
// server's clock.
func NewServerReply(req *Packet, recvAt, sendAt time.Time, stratum uint8, refID uint32) Packet {
	return Packet{
		Leap:           LeapNone,
		Version:        req.Version,
		Mode:           ModeServer,
		Stratum:        stratum,
		Poll:           req.Poll,
		Precision:      -20, // ~1µs
		RootDelay:      ShortFromDuration(2 * time.Millisecond),
		RootDispersion: ShortFromDuration(time.Millisecond),
		ReferenceID:    refID,
		ReferenceTime:  TimestampFromTime(recvAt.Add(-30 * time.Second)),
		OriginTime:     req.TransmitTime,
		ReceiveTime:    TimestampFromTime(recvAt),
		TransmitTime:   TimestampFromTime(sendAt),
	}
}
