package dist_test

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dist"
)

// BenchmarkFleetDiagnose times one diagnosis of a fixed
// fleet_partitioned instance (19 clusters of 4 rows, two UPDATEs each:
// 18 partitions) through a coordinator over two loopback workers and
// reports the bytes both ways on the workers' connections per
// diagnosis (wire-B/op). Workers and coordinator share the process, so
// B/op counts both sides' allocations.
func BenchmarkFleetDiagnose(b *testing.B) {
	w, corrupt, err := bench.PartitionClusters(19, 4, 2, 6011)
	if err != nil {
		b.Fatal(err)
	}
	in, err := w.MakeInstance(corrupt...)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Algorithm: core.Incremental, K: 1, TupleSlicing: true, QuerySlicing: true,
		TimeLimit: time.Minute, Partition: 2}
	var wire atomic.Int64
	var addrs []string
	for range 2 {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := &dist.Server{}
		go srv.Serve(countingListener{l, &wire})
		defer srv.Close()
		addrs = append(addrs, l.Addr().String())
	}
	coord := dist.Connect(dist.Config{}, addrs...)
	defer coord.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		rep, err := coord.Diagnose(in.W.D0, in.Dirty, in.Complaints, opts)
		if err != nil || !rep.Resolved || rep.Stats.RemoteJobs != rep.Stats.Partitions {
			b.Fatalf("err=%v resolved=%v remote jobs %d of %d", err, rep != nil && rep.Resolved,
				rep.Stats.RemoteJobs, rep.Stats.Partitions)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(wire.Load())/float64(b.N), "wire-B/op")
}

// countingListener counts every byte read or written on the
// connections it accepts.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}
