package metastore_test

import (
	"fmt"
	"testing"

	"panrucio/internal/metastore"
	"panrucio/internal/metastore/storetest"
	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// refreezeWindows are the ranged reads FuzzRefreeze checks: every time the
// decoded puts use falls in [0, 5).
var refreezeWindows = [][2]simtime.VTime{{0, 5}, {1, 3}, {2, 3}, {4, 9}}

// FuzzRefreeze fuzzes repeated freezes mid-stream: each Freeze after the
// first seals both tails and compacts each time index to one run again,
// and join entries are bound at put time — file rows whose key has no
// event yet wait unbound for it. After every Freeze and
// at the end (live, then frozen once more), Jobs and Transfers must equal
// the stream oracle's stable sorts (the oracle FuzzSegmentMerge uses) and
// every matcher-facing probe must equal the oracle's join entries.
//
// Input layout: data[0] → segment rows (1..8), data[1] → shard count
// (1..8), missing bytes reading as 0; then one op per byte: 0xFF seals
// both tails, 0xFE freezes, any other value b puts a row chosen
// by b%3 — a job, a file row, or a transfer — with v = b/3 drawing its
// fields from tiny pools so ties and shared keys are the rule: time v%5,
// task v%3 (0 is task-less), pandaid v%4, LFN f(v%7%3), and a label
// alternating user/managed.
func FuzzRefreeze(f *testing.F) {
	f.Add([]byte{})                                   // empty input
	f.Add([]byte{2, 3, 0xFE, 0, 1, 2, 5, 0xFE})       // a Freeze before any put
	f.Add([]byte{1, 2, 0, 1, 2, 0xFE, 0xFE, 5, 0xFE}) // two Freezes with no put between
	// File rows (b%3 == 1) before their events (b%3 == 2, same task and
	// LFN): each file waits unbound, then binds when its event arrives.
	f.Add([]byte{3, 2, 4, 7, 10, 13, 0xFE, 5, 8, 11, 14, 0xFF, 0xFE, 3, 6})
	f.Add([]byte("\x01\x04refreeze\xfemid\xffstream\xfe\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [2]byte
		copy(hdr[:], data)
		s := metastore.NewShardedSegmented(1+int(hdr[1]%8), 1+int(hdr[0]%8))
		var st storetest.Stream
		check := func(when string) {
			t.Helper()
			o := st.Oracle(st.Len())
			if err := o.CheckRanges(s, refreezeWindows); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if err := o.CheckJoins(s); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
		}
		ops := data[min(len(data), 2):]
		for i, b := range ops {
			switch {
			case b == 0xFF:
				s.Seal()
				continue
			case b == 0xFE:
				s.Freeze()
				check(fmt.Sprintf("after the Freeze at op %d", i))
				continue
			}
			v := int64(b / 3)
			task, at := v%3, simtime.VTime(v%5)
			lfn := fmt.Sprintf("f%d", v%7%3)
			switch b % 3 {
			case 0:
				label := records.LabelUser
				if i%2 == 1 {
					label = records.LabelManaged
				}
				j := records.JobRecord{PandaID: v % 4, JediTaskID: task, Label: label, EndTime: at,
					NInputFileBytes: int64(i + 1)} // row id
				s.PutJob(&j)
				st.AddJob(j)
			case 1:
				fr := records.FileRecord{PandaID: v % 4, JediTaskID: task, LFN: lfn, Scope: "s",
					Dataset: "d", ProdDBlock: "p", FileSize: int64(i + 1)} // row id
				s.PutFile(&fr)
				st.AddFile(fr)
			default:
				ev := records.TransferEvent{EventID: int64(i + 1), JediTaskID: task, LFN: lfn, Scope: "s",
					Dataset: "d", ProdDBlock: "p", StartedAt: at, EndedAt: at + 40}
				s.PutTransfer(&ev)
				st.AddTransfer(ev)
			}
		}
		check("live at the end")
		s.Freeze()
		check("frozen at the end")
	})
}
