package service

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"energyprop/internal/device"
	"energyprop/internal/parindex"
	"energyprop/internal/policy"
)

// OptimizeResponse is the /optimize reply: the best configuration the
// index holds for the requested (device, workload) under the client's
// constraint, plus enough context to audit the answer.
type OptimizeResponse struct {
	Device   string `json:"device"`
	App      string `json:"app"`
	N        int    `json:"n"`
	Products int    `json:"products"`
	// Config is the winning configuration's canonical key (the same key
	// /measure accepts), Label its human-readable form.
	Config string `json:"config"`
	Label  string `json:"label"`
	// Seconds and DynEnergyJ are the winning point's indexed
	// coordinates — bit-identical to the campaign record it came from.
	Seconds    float64 `json:"seconds"`
	DynEnergyJ float64 `json:"dyn_energy_j"`
	// Objective names what was minimized: "dyn_energy_j" under a
	// max_time constraint, "seconds" under a max_energy constraint.
	Objective string `json:"objective"`
	// FrontSize is the Pareto front's size for this key — how many
	// non-dominated configurations the index currently distinguishes.
	FrontSize int `json:"front_size"`
	// Policy echoes the policy query parameter when the answer was
	// restricted to one strategy's points.
	Policy string `json:"policy,omitempty"`
}

// queryFloat parses an optional positive finite float query parameter;
// absent means unset (0, false).
func queryFloat(r *http.Request, name string) (float64, bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s %q: %v", name, raw, err)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
		return 0, false, fmt.Errorf("%s=%v must be a positive finite number", name, v)
	}
	return v, true, nil
}

// queryInt parses an optional positive integer query parameter.
func queryInt(r *http.Request, name string) (int, bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, false, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s %q: %v", name, raw, err)
	}
	if v <= 0 {
		return 0, false, fmt.Errorf("%s=%d must be positive", name, v)
	}
	return v, true, nil
}

// handleOptimize answers a constraint query from the incremental Pareto
// index — the serving path of the streaming pipeline. No measurement
// runs: the answer is a treap lookup over fronts that /measure and
// /sweep campaigns populated earlier in the process lifetime.
//
//	GET /optimize?device=p100&n=10240&products=8&max_energy=120
//
// Exactly what the index holds is answered: a key no campaign covered is
// 404 (run a /sweep first), and a covered key with no point inside the
// constraint is 404 with the front size as evidence the key was
// searched. Constraint semantics are parindex.Query's: max_time
// minimizes energy among points at most that slow; max_energy minimizes
// time among points at most that hungry; both applies both filters and
// minimizes energy. At least one constraint is required — an
// unconstrained "best" has no single answer on a two-objective front.
//
// An optional policy parameter restricts the answer to one strategy's
// configurations ("pol=<policy>/…" keys from a policy /sweep). The
// filter sees only the current front: a policy point dominated by the
// other strategy's points is not on the front and cannot be returned,
// which is the honest reading of "best under this policy that is also
// globally non-dominated".
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	name := r.URL.Query().Get("device")
	if err := knownDevice(name); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	n, ok, err := queryInt(r, "n")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !ok {
		httpError(w, http.StatusBadRequest, "missing n (the workload's matrix dimension)")
		return
	}
	products, _, err := queryInt(r, "products")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	wl := device.Workload{App: r.URL.Query().Get("app"), N: n, Products: products}.Normalized()
	if err := wl.Validate(); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	maxTime, hasTime, err := queryFloat(r, "max_time")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	maxEnergy, hasEnergy, err := queryFloat(r, "max_energy")
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !hasTime && !hasEnergy {
		httpError(w, http.StatusBadRequest,
			"at least one of max_time or max_energy is required (an unconstrained query has no single optimum on a two-objective front)")
		return
	}
	pol := r.URL.Query().Get("policy")
	if pol != "" && !policy.ValidStrategy(pol) {
		httpError(w, http.StatusBadRequest, fmt.Sprintf(
			"unknown policy %q (known: %v)", pol, policy.Strategies()))
		return
	}
	key := parindex.Key{Device: name, App: wl.App, N: wl.N, Products: wl.Products}
	q := parindex.Query{MaxTime: maxTime, MaxEnergy: maxEnergy}
	var best parindex.Entry
	var frontSize int
	if pol == "" {
		best, frontSize, ok = s.index.Best(key, q)
		if !ok && frontSize == 0 {
			httpError(w, http.StatusNotFound, fmt.Sprintf(
				"no indexed campaign for device=%q app=%q n=%d products=%d — run a /sweep (or /measure) for this workload first",
				key.Device, key.App, key.N, key.Products))
			return
		}
	} else {
		entries := s.index.Entries(key)
		if len(entries) == 0 {
			httpError(w, http.StatusNotFound, fmt.Sprintf(
				"no indexed campaign for device=%q app=%q n=%d products=%d — run a /sweep (or /measure) for this workload first",
				key.Device, key.App, key.N, key.Products))
			return
		}
		// A subset of a front is itself a front, so the policy's points
		// answer the query exactly as the index would.
		prefix := "pol=" + pol + "/"
		var candidates parindex.Front
		for _, e := range entries {
			if strings.HasPrefix(e.Config, prefix) {
				candidates.Insert(e)
			}
		}
		if candidates.Len() == 0 {
			httpError(w, http.StatusNotFound, fmt.Sprintf(
				"front holds %d non-dominated points for this workload but none under policy %q — run a policy /sweep, or the other strategy dominates here",
				len(entries), pol))
			return
		}
		frontSize = candidates.Len()
		best, ok = candidates.Best(q)
	}
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf(
			"no configuration satisfies the constraint (front holds %d non-dominated points for this workload)",
			frontSize))
		return
	}
	objective := "seconds"
	if hasTime {
		objective = "dyn_energy_j"
	}
	writeJSON(w, http.StatusOK, OptimizeResponse{
		Device:     key.Device,
		App:        key.App,
		N:          key.N,
		Products:   key.Products,
		Config:     best.Config,
		Label:      best.Label,
		Seconds:    best.Time,
		DynEnergyJ: best.Energy,
		Objective:  objective,
		FrontSize:  frontSize,
		Policy:     pol,
	})
}
