package pipeline

import (
	"context"
	"testing"
)

func TestMeterIORecordsPerKernelTraffic(t *testing.T) {
	cfg := smallCfg("csr")
	cfg.MeterIO = true
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k0 := res.KernelResultFor(K0Generate)
	k1 := res.KernelResultFor(K1Sort)
	k2 := res.KernelResultFor(K2Filter)
	k3 := res.KernelResultFor(K3PageRank)
	for name, k := range map[string]*KernelResult{"k0": k0, "k1": k1, "k2": k2, "k3": k3} {
		if k.IO == nil {
			t.Fatalf("%s: no IO stats recorded", name)
		}
	}
	// K0 only writes, K1 reads and writes about the same volume, K2 only
	// reads, K3 touches no storage.
	if k0.IO.BytesRead != 0 || k0.IO.BytesWritten == 0 {
		t.Errorf("K0 IO = %+v", *k0.IO)
	}
	if k1.IO.BytesRead == 0 || k1.IO.BytesWritten == 0 {
		t.Errorf("K1 IO = %+v", *k1.IO)
	}
	if k1.IO.BytesRead != k0.IO.BytesWritten {
		t.Errorf("K1 read %d bytes, K0 wrote %d — must match", k1.IO.BytesRead, k0.IO.BytesWritten)
	}
	if k1.IO.BytesWritten != k1.IO.BytesRead {
		t.Errorf("K1 sorted rewrite size %d != read size %d (same text format)", k1.IO.BytesWritten, k1.IO.BytesRead)
	}
	if k2.IO.BytesRead != k1.IO.BytesWritten || k2.IO.BytesWritten != 0 {
		t.Errorf("K2 IO = %+v", *k2.IO)
	}
	if k3.IO.BytesRead != 0 || k3.IO.BytesWritten != 0 {
		t.Errorf("K3 IO = %+v, kernel 3 is storage-free", *k3.IO)
	}
}

func TestMeterIOOffByDefault(t *testing.T) {
	res, err := ExecuteContext(context.Background(), smallCfg("csr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range res.Kernels {
		if k.IO != nil {
			t.Fatal("IO stats present without MeterIO")
		}
	}
}

func TestMeterIOExtsortSeesSpillTraffic(t *testing.T) {
	cfg := smallCfg("extsort")
	cfg.MeterIO = true
	cfg.RunEdges = 64 // force heavy spilling
	res, err := ExecuteContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k1 := res.KernelResultFor(K1Sort)
	// External sort reads input + spilled runs; its total read volume must
	// exceed the plain input size (csr's K1 read volume).
	ref := smallCfg("csr")
	ref.MeterIO = true
	refRes, err := ExecuteContext(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}
	refK1 := refRes.KernelResultFor(K1Sort)
	if k1.IO.BytesRead <= refK1.IO.BytesRead {
		t.Errorf("extsort K1 read %d bytes, expected more than in-memory K1's %d (spill traffic)",
			k1.IO.BytesRead, refK1.IO.BytesRead)
	}
}
