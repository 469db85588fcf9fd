package livenet

import (
	"net"
	"testing"

	"abw/internal/livenet/ingest"
)

// benchIntakePair builds a loopback UDP pair with a deep receive
// buffer, so a whole pre-filled chunk survives in the socket queue.
func benchIntakePair(b *testing.B) (*net.UDPConn, *net.UDPConn) {
	b.Helper()
	rc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rc.Close() })
	if err := rc.SetReadBuffer(4 << 20); err != nil {
		b.Logf("SetReadBuffer: %v", err)
	}
	sc, err := net.DialUDP("udp", nil, rc.LocalAddr().(*net.UDPAddr))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sc.Close() })
	return rc, sc
}

// intakeChunk sizes the pre-fill so no datagram ever overflows the
// granted receive buffer (the kernel charges ~an order of magnitude
// more than the 64 payload bytes per small datagram).
func intakeChunk(rc *net.UDPConn) int {
	chunk := ingest.EffectiveRcvBuf(rc) / 4096
	if chunk < 16 {
		chunk = 16
	}
	if chunk > 2048 {
		chunk = 2048
	}
	return chunk
}

const benchPktSize = 64

func benchIntakeBufs(chunk int) [][]byte {
	bufs := make([][]byte, chunk)
	for i := range bufs {
		bufs[i] = probePacket(1, 2, uint32(i), benchPktSize)
	}
	return bufs
}

// BenchmarkReceiverIngest prices the receiver's per-packet intake —
// receive syscalls, arrival stamping, probe-header parsing — with the
// sender excluded: each chunk is written into the socket queue while
// the timer is stopped, and only the drain is timed. One op is one
// 64-byte probe packet, so pkts/sec/core is 1e9/(ns/op).
//
//   - batched: the live path — recvmmsg slot ring, kernel RX
//     timestamps, one header parse per datagram. Steady state
//     allocates nothing.
//   - fallback: the portable single-read loop (ForceFallback), one
//     syscall per packet, userspace stamps.
func BenchmarkReceiverIngest(b *testing.B) {
	b.Run("batched", func(b *testing.B) { benchIntake(b, false) })
	b.Run("fallback", func(b *testing.B) { benchIntake(b, true) })
}

func benchIntake(b *testing.B, force bool) {
	rc, sc := benchIntakePair(b)
	r := ingest.NewReader(rc, ingest.Config{ForceFallback: force, Slot: maxPacket})
	w := ingest.NewWriter(sc)
	chunk := intakeChunk(rc)
	bufs := benchIntakeBufs(chunk)
	batch := make([]ingest.Datagram, r.BatchSize())
	stamped := 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := chunk
		if b.N-done < n {
			n = b.N - done
		}
		b.StopTimer()
		if err := w.WriteBatch(bufs[:n]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for got := 0; got < n; {
			k, err := r.ReadBatch(batch)
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range batch[:k] {
				if _, ok := parseProbeHeader(d.Payload); ok {
					stamped++
				}
			}
			got += k
		}
		done += n
	}
	b.StopTimer()
	if stamped != b.N {
		b.Fatalf("stamped %d of %d packets", stamped, b.N)
	}
}
