// Gateway leadership leases. The fleet layer runs an active/standby
// gateway pair; the shards themselves are the lease arbiter. Each
// server durably records the highest gateway epoch it has ever granted
// (a cold WAL meta record, replayed on restart, carried through
// snapshots) and fences every write stamped with a lower epoch. A
// gateway that wins epoch e+1 on a majority of shards is the leader; a
// deposed "zombie" gateway — partitioned, paused mid-batch, or simply
// slow to notice — finds all of its subsequent writes rejected with
// transport.ErrStaleLeader, so its retransmitted batches can only land
// through the new leader, exactly once via the per-device seq marks.
//
// Writes stamped with epoch zero are unfenced: single-server
// deployments and fleets without HA never claim a lease, and their
// traffic must keep flowing. The fence therefore binds only gateways
// that opted into leadership epochs — which is exactly the population
// that can be deposed.
package bms

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"occusim/internal/obs"
	"occusim/internal/transport"
)

// leaseState is the server's view of gateway leadership: the highest
// epoch granted and who holds it.
type leaseState struct {
	mu     sync.Mutex
	epoch  uint64
	holder string
}

// GrantLease records holder as the leaseholder at epoch, durably
// (when the server is durable) before acknowledging. The grant rules:
//
//   - epoch above the current grant: granted, logged, and the old
//     holder is deposed.
//   - epoch equal to the current grant from the same holder: a
//     renewal; granted without re-logging (the grant is already
//     durable).
//   - epoch equal to the current grant from a different holder: the
//     epoch was already won by someone else — rejected, so two
//     claimants can never both count this shard toward a quorum at
//     the same epoch.
//   - epoch below the current grant: rejected.
//
// Rejections return *transport.StaleLeaderError carrying the current
// grant, so a losing claimant learns which epoch to outbid and where the
// leader is.
func (s *Server) GrantLease(epoch uint64, holder string) (uint64, string, error) {
	if epoch == 0 {
		return 0, "", fmt.Errorf("bms: lease claim at epoch 0 (epoch 0 means unfenced)")
	}
	sm := s.met
	s.hold(false)
	defer s.release(false)
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	switch {
	case epoch < s.lease.epoch:
		if sm != nil {
			sm.leaseRejects.Inc()
			sm.rec.Record(obs.EventLeaseReject, map[string]any{
				"epoch": epoch, "claimant": holder, "granted": s.lease.epoch, "holder": s.lease.holder,
			})
		}
		return s.lease.epoch, s.lease.holder, &transport.StaleLeaderError{Granted: s.lease.epoch, Leader: s.lease.holder}
	case epoch == s.lease.epoch:
		if s.lease.holder != "" && s.lease.holder != holder {
			if sm != nil {
				sm.leaseRejects.Inc()
				sm.rec.Record(obs.EventLeaseReject, map[string]any{
					"epoch": epoch, "claimant": holder, "granted": s.lease.epoch, "holder": s.lease.holder,
				})
			}
			return s.lease.epoch, s.lease.holder, &transport.StaleLeaderError{Granted: s.lease.epoch, Leader: s.lease.holder}
		}
		// A renewal (or a holder filling in the hint a write-implied
		// advance left empty). The epoch itself is already durable.
		// Renewals are counted but NOT recorded: a TTL/3 heartbeat per
		// holder would wash every interesting event out of the ring.
		s.lease.holder = holder
		if sm != nil {
			sm.leaseRenewals.Inc()
		}
		return s.lease.epoch, s.lease.holder, nil
	default:
		prev := s.lease.epoch
		if _, err := s.logApply(&walRecord{T: recLease, Lease: &leaseRecJSON{Epoch: epoch, Holder: holder}}); err != nil {
			return s.lease.epoch, s.lease.holder, err
		}
		if sm != nil {
			sm.leaseClaims.Inc()
			sm.rec.Record(obs.EventLeaseClaim, map[string]any{
				"epoch": epoch, "holder": holder, "deposed": prev,
			})
		}
		return epoch, holder, nil
	}
}

// GrantedLease returns the highest epoch this server has granted and
// the holder's advertised URL (zero and "" before any grant).
func (s *Server) GrantedLease() (uint64, string) {
	s.lease.mu.Lock()
	defer s.lease.mu.Unlock()
	return s.lease.epoch, s.lease.holder
}

// admitEpoch fences a write stamped with a gateway epoch. Zero is
// unfenced and always admitted. An epoch below the grant is the
// zombie case — rejected. An epoch above it means the stamping
// gateway won a quorum this shard was not part of (it was down or in
// the minority); the write itself is proof of the newer leadership,
// so the grant advances durably before the write is admitted —
// fencing stays monotone on every shard, not just the claim quorum.
func (s *Server) admitEpoch(epoch uint64) error {
	if epoch == 0 {
		return nil
	}
	sm := s.met
	s.lease.mu.Lock()
	if epoch > s.lease.epoch {
		// The grant is about to advance: take the guard first, then the
		// lease again — the checks below run on what is found then.
		s.lease.mu.Unlock()
		s.hold(false)
		defer s.release(false)
		s.lease.mu.Lock()
	}
	defer s.lease.mu.Unlock()
	if epoch < s.lease.epoch {
		if sm != nil {
			sm.fencedWrites.Inc()
			sm.rec.Record(obs.EventFencedWrite, map[string]any{
				"epoch": epoch, "granted": s.lease.epoch, "holder": s.lease.holder,
			})
		}
		return &transport.StaleLeaderError{Granted: s.lease.epoch, Leader: s.lease.holder}
	}
	if from := s.lease.epoch; epoch > from {
		if _, err := s.logApply(&walRecord{T: recLease, Lease: &leaseRecJSON{Epoch: epoch}}); err != nil {
			return err
		}
		if sm != nil {
			sm.rec.Record(obs.EventLeaseAdvance, map[string]any{
				"from": from, "to": epoch,
			})
		}
	}
	// Tripwire, compared independently of the fence above: if a write
	// stamped below the grant is about to be admitted, the fence has a
	// bug. Crash drills assert this counter stays zero.
	if sm != nil && epoch < s.lease.epoch {
		sm.staleAdmits.Inc()
	}
	return nil
}

// --- HTTP face --------------------------------------------------------

// gatewayEpochFrom reads the write's leadership stamp; absent or
// malformed means unfenced (epoch zero), matching pre-HA clients.
func gatewayEpochFrom(r *http.Request) uint64 {
	v := r.Header.Get(transport.HeaderGatewayEpoch)
	if v == "" {
		return 0
	}
	epoch, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0
	}
	return epoch
}
