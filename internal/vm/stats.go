package vm

// Stats is a point-in-time snapshot of an AddressSpace's counters. All page
// quantities use the simulated 4 KB page.
type Stats struct {
	RSSPages      int64 // current resident pages
	MaxRSSPages   int64 // high-water resident pages
	VirtualPages  int64 // currently reserved virtual pages
	MaxVirtual    int64 // high-water virtual reservation
	PageFaults    int64 // demand-paging faults taken
	MMapCalls     int64 // serialized address-space mutations (mmap/dummy/remap)
	MUnmapCalls   int64
	MadviseCalls  int64 // lock-free DONTNEED calls
	MadvisedPages int64 // pages freed via madvise
	RemapCalls    int64 // anonymous remaps after dummy-file unmaps
	LockContended int64 // address-space lock acquisitions that waited
	DummyTouches  int64 // accesses to dummy-mapped pages (bug indicator)
}

// Snapshot returns the current counter values.
func (as *AddressSpace) Snapshot() Stats {
	return Stats{
		RSSPages:      as.rss.Load(),
		MaxRSSPages:   as.maxRSS.Load(),
		VirtualPages:  as.virtualPages.Load(),
		MaxVirtual:    as.maxVirtual.Load(),
		PageFaults:    as.faults.Load(),
		MMapCalls:     as.mmapCalls.Load(),
		MUnmapCalls:   as.munmapCalls.Load(),
		MadviseCalls:  as.madviseCalls.Load(),
		MadvisedPages: as.madvisedPages.Load(),
		RemapCalls:    as.remapCalls.Load(),
		LockContended: as.lockContended.Load(),
		DummyTouches:  as.dummyTouches.Load(),
	}
}
