package cxl

import (
	"cxlfork/internal/des"
	"cxlfork/internal/telemetry"
)

// RegisterTelemetry registers the device's gauges and counters against
// reg.
func (d *Device) RegisterTelemetry(reg *telemetry.Registry) {
	if !reg.Enabled() {
		return
	}
	// The exclusive and shared gauges split one Occupancy walk over
	// every tracked frame; take it once per sampling tick.
	var occ DeviceOccupancy
	occTick := int64(-1)
	occupancy := func() DeviceOccupancy {
		if t := reg.Ticks(); t != occTick {
			occ, occTick = d.Occupancy(), t
		}
		return occ
	}
	reg.Gauge("cxl_used_bytes", "bytes allocated on the shared CXL device (data plus metadata)",
		func(des.Time) float64 { return float64(d.UsedBytes()) })
	reg.Gauge("cxl_meta_bytes", "bytes of checkpoint metadata resident on the device",
		func(des.Time) float64 { return float64(d.MetaBytes()) })
	reg.Gauge("cxl_utilization", "device occupancy as a fraction of capacity",
		func(des.Time) float64 { return d.Utilization() })
	reg.Gauge("cxl_arenas", "sealed plus staged checkpoint arenas resident on the device",
		func(des.Time) float64 { return float64(d.Arenas()) })
	reg.Gauge("cxl_exclusive_bytes", "frame bytes referenced by exactly one checkpoint",
		func(des.Time) float64 { return float64(occupancy().ExclusiveFrames) })
	reg.Gauge("cxl_shared_bytes", "frame bytes shared by two or more checkpoints via dedup",
		func(des.Time) float64 { return float64(occupancy().SharedFrames) })
	reg.Gauge("cxl_dedup_index", "live entries in the content-addressed frame index",
		func(des.Time) float64 { return float64(d.DedupIndexLen()) })
	reg.Gauge("cxl_dedup_hit_rate", "fraction of frame allocations served by an existing frame",
		func(des.Time) float64 { return d.Dedup.HitRate() })
	reg.CounterFunc("cxl_dedup_hits_total", "frame allocations deduplicated against a resident frame",
		func(des.Time) float64 { return float64(d.Dedup.Hits.Value()) })
	reg.CounterFunc("cxl_dedup_misses_total", "frame allocations that stored a new frame",
		func(des.Time) float64 { return float64(d.Dedup.Misses.Value()) })
	reg.CounterFunc("cxl_dedup_bytes_saved_total", "device bytes avoided by frame dedup",
		func(des.Time) float64 { return float64(d.Dedup.BytesSaved.Value()) })
	reg.CounterFunc("cxl_read_bytes_total", "bytes read from the device over the fabric",
		func(des.Time) float64 { return float64(d.ReadBytes) })
	reg.CounterFunc("cxl_write_bytes_total", "bytes written to the device over the fabric",
		func(des.Time) float64 { return float64(d.WriteBytes) })
}
