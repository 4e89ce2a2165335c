package gos

import (
	"sort"

	"jessica2/internal/heap"
	"jessica2/internal/network"
	"jessica2/internal/tcm"
)

// Object home migration is the other locality lever the paper's §II
// taxonomy names (thread-object affinity "can be improved either by thread
// migration or object home migration") and §VI flags as needing the "home
// effect" in correlation input. This file implements the mechanism and a
// profile-driven advisor.

// HomeMove is one recommended or executed home migration.
type HomeMove struct {
	Obj      heap.ObjectID
	From, To int
	// Bytes is the object payload moved.
	Bytes int
}

// MigrateHome re-homes an object to newHome: the object's latest contents
// transfer from the current home, the new home's replica becomes the
// authoritative copy, and the old home's replica downgrades to an ordinary
// cache copy at the current version. Remote caches are unaffected — their
// version checks keep working because versions are per-object, not
// per-home. Returns the executed move (zero Move if already homed there).
func (k *Kernel) MigrateHome(o *heap.Object, newHome int) HomeMove {
	if newHome < 0 || newHome >= len(k.nodes) {
		panic("gos: bad home node")
	}
	if o.Home == newHome {
		return HomeMove{}
	}
	mv := HomeMove{Obj: o.ID, From: o.Home, To: newHome, Bytes: o.Bytes()}
	// Ship the home copy (cost-accounted; version table is global truth).
	k.Net.Send(network.NodeID(o.Home), network.NodeID(newHome),
		network.CatGOSData, o.Bytes(), k.newMsg(protoMsg{kind: msgDiff}))
	// Old home's replica becomes a plain cache copy at the current version.
	old := k.nodes[o.Home].copyOf(o)
	old.version = k.version(o.ID)
	// New home's replica is authoritative.
	o.Home = newHome
	nh := k.nodes[newHome].copyOf(o)
	nh.valid = true
	nh.version = k.version(o.ID)
	nh.checkedEpoch = k.nodes[newHome].epoch
	k.stats.HomeMigrations++
	return mv
}

// AdviseHomes recommends home migrations from a correlation summary: an
// object whose accessor threads all execute on one node, while its home is
// elsewhere, should be homed with them (every access currently pays a
// remote fault after each update). assignment maps thread id to node.
// minBytes filters noise. Results are sorted by object id for determinism.
func (k *Kernel) AdviseHomes(s *tcm.Summary, assignment []int, minBytes int) []HomeMove {
	var out []HomeMove
	for _, os := range s.Objs {
		o := k.Reg.Object(heap.ObjectID(os.Key))
		if o == nil || o.Bytes() < minBytes || len(os.Threads) == 0 {
			continue
		}
		node := -1
		unanimous := true
		for _, th := range os.Threads {
			if int(th) >= len(assignment) {
				unanimous = false
				break
			}
			d := assignment[th]
			if node == -1 {
				node = d
			} else if node != d {
				unanimous = false
				break
			}
		}
		if !unanimous || node == -1 || node == o.Home {
			continue
		}
		out = append(out, HomeMove{Obj: o.ID, From: o.Home, To: node, Bytes: o.Bytes()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Obj < out[j].Obj })
	return out
}
