// Package httpapi implements Rainbow's Web middle tier over net/http: one
// handler per servlet of the original system (paper §2). The handlers
// manage a Rainbow instance hosted by the "Rainbow home host" process
// (cmd/rainbow-home) and bridge external clients — the role the Java
// applet + ServletRunner pair played:
//
//	POST /NSRunnerlet   — start a Rainbow instance from an experiment config
//	GET  /NSlet         — fetch the catalog (name-server metadata)
//	GET  /SiteRunnerlet — list sites and their liveness
//	GET  /Sitelet       — one site's statistics and store snapshot
//	POST /WLGlet/run    — run a simulated workload, returning its result
//	POST /WLGlet/manual — compose and submit one manual transaction
//	GET  /PMlet         — the aggregated statistics report (JSON)
//	GET  /PMlet/render  — the Figure-5 output panel as text
//	POST /Faultlet      — inject a crash / recovery / partition / heal
//	POST /Resetlet      — reset the statistics window
//
// Beyond the servlet surface, the durability pipeline is exposed REST-style:
//
//	POST /site/{id}/checkpoint — trigger a manual checkpoint on one site
//	POST /catalog              — install a new catalog version at runtime
//	                             (epoch-stamped, live-reconfigures sites)
//
// and /Sitelet carries a "durability" section (snapshot counts, replay
// horizon, dirty-shard gauge, decision-table size, retained WAL volume,
// catalog epoch / reconfiguration count).
//
// POST /catalog takes the same experiment-config JSON as /NSRunnerlet. A
// nonzero "epoch" field is a compare-and-set token: the update is rejected
// with 409 when it does not match the name server's current epoch, so
// concurrent administrators cannot silently clobber each other. The site
// set is fixed for the instance's lifetime.
package httpapi

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/monitor"
	"repro/internal/wlg"
)

// Server hosts one Rainbow instance behind the servlet endpoints.
type Server struct {
	profiling bool

	mu       sync.Mutex
	instance *core.Instance
	exp      config.Experiment
}

// NewServer returns a server with no instance configured yet.
func NewServer() *Server { return &Server{} }

// EnableProfiling mounts net/http/pprof and expvar under /debug on the next
// Handler call (rainbow-home -pprof). Off by default.
func (s *Server) EnableProfiling() { s.profiling = true }

// Close shuts down the hosted instance.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instance != nil {
		s.instance.Close()
		s.instance = nil
	}
}

// Handler returns the servlet mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /NSRunnerlet", s.handleNSRunner)
	mux.HandleFunc("GET /NSlet", s.handleNS)
	mux.HandleFunc("GET /SiteRunnerlet", s.handleSiteRunner)
	mux.HandleFunc("GET /Sitelet", s.handleSite)
	mux.HandleFunc("POST /WLGlet/run", s.handleWLGRun)
	mux.HandleFunc("POST /WLGlet/manual", s.handleWLGManual)
	mux.HandleFunc("GET /PMlet", s.handlePM)
	mux.HandleFunc("GET /PMlet/render", s.handlePMRender)
	mux.HandleFunc("POST /Faultlet", s.handleFault)
	mux.HandleFunc("POST /Resetlet", s.handleReset)
	mux.HandleFunc("POST /site/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /catalog", s.handleCatalogUpdate)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /site/{id}/traces", s.handleTraces)
	if s.profiling {
		// Opt-in only: the pprof handlers expose heap contents and expvar
		// whatever the process published; neither belongs on by default.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("GET /debug/vars", expvar.Handler())
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// current returns the hosted instance or an error.
func (s *Server) current() (*core.Instance, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.instance == nil {
		return nil, fmt.Errorf("no Rainbow instance configured; POST /NSRunnerlet first")
	}
	return s.instance, nil
}

// handleNSRunner starts (or replaces) the instance from an experiment
// config in the request body; an empty body selects the default demo
// configuration.
func (s *Server) handleNSRunner(w http.ResponseWriter, r *http.Request) {
	exp := config.Default()
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&exp); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := exp.Validate(); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	opts, err := exp.Options()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, err := core.New(opts)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.mu.Lock()
	if s.instance != nil {
		s.instance.Close()
	}
	s.instance = inst
	s.exp = exp
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "started", "sites": inst.SiteIDs()})
}

func (s *Server) handleNS(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, inst.Catalog())
}

func (s *Server) handleSiteRunner(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	type siteStatus struct {
		Site    model.SiteID `json:"site"`
		Crashed bool         `json:"crashed"`
	}
	var out []siteStatus
	for _, id := range inst.SiteIDs() {
		st, _ := inst.Site(id)
		out = append(out, siteStatus{Site: id, Crashed: st.Crashed()})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSite(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	id := model.SiteID(r.URL.Query().Get("site"))
	st, ok := inst.Site(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown site %q", id))
		return
	}
	stats := st.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"stats":      stats,
		"store":      st.Store().Snapshot(),
		"durability": durabilityOf(stats),
	})
}

// durabilityOf projects the durability counters out of a site's stats — the
// checkpoint/WAL subset monitoring systems scrape without parsing the whole
// statistics panel.
func durabilityOf(stats monitor.SiteStats) map[string]any {
	return map[string]any{
		"checkpoints":        stats.Checkpoints,
		"checkpoint_deltas":  stats.CheckpointDeltas,
		"last_horizon":       stats.CheckpointHorizon,
		"gate_pause_ns":      stats.CheckpointPauseNS,
		"dirty_shards":       stats.DirtyShards,
		"decisions":          stats.Decisions,
		"segments_compacted": stats.SegmentsCompacted,
		"wal_segments":       stats.WALSegments,
		"wal_bytes":          stats.WALBytes,
		"recovery_records":   stats.RecoveryRecords,
		"epoch":              stats.Epoch,
		"reconfigures":       stats.Reconfigures,
	}
}

// handleCatalogUpdate installs a new catalog version on the running
// instance: validate, epoch-stamp on the name server, live-reconfigure the
// sites. A stale compare-and-set epoch (see the package comment) returns
// 409 Conflict with the error body.
func (s *Server) handleCatalogUpdate(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	var exp config.Experiment
	if err := json.NewDecoder(r.Body).Decode(&exp); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if err := exp.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	cat, err := exp.BuildCatalog()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	epoch, err := inst.UpdateCatalog(cat)
	if err != nil {
		status := http.StatusConflict // stale CAS epoch, fixed site set
		if epoch != 0 {
			// The catalog installed but a site rebuild failed.
			status = http.StatusInternalServerError
		}
		writeErr(w, status, err)
		return
	}
	s.mu.Lock()
	s.exp = exp
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "updated", "epoch": epoch})
}

// handleCheckpoint triggers a manual checkpoint on one site — the REST face
// of Site.Checkpoint, next to the automatic byte/interval policies.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	id := model.SiteID(r.PathValue("id"))
	st, ok := inst.Site(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("unknown site %q", id))
		return
	}
	if err := st.Checkpoint(); err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"durability": durabilityOf(st.Stats()),
	})
}

func (s *Server) handleWLGRun(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	var wk config.Workload
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&wk); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	} else {
		s.mu.Lock()
		wk = s.exp.Workload
		s.mu.Unlock()
	}
	exp := config.Experiment{Workload: wk}
	res := inst.RunWorkload(r.Context(), exp.Profile())
	writeJSON(w, http.StatusOK, map[string]any{
		"submitted":   res.Submitted,
		"committed":   res.Committed,
		"aborted":     res.Aborted,
		"restarts":    res.Restarts,
		"commit_rate": res.CommitRate(),
		"throughput":  res.Throughput(),
		"mean_ms":     float64(res.MeanLatency().Microseconds()) / 1000.0,
	})
}

// manualReq is the /WLGlet/manual body.
type manualReq struct {
	Home model.SiteID `json:"home"`
	Ops  []wlg.Manual `json:"ops"`
}

func (s *Server) handleWLGManual(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	var req manualReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	out, err := inst.SubmitManual(r.Context(), req.Home, req.Ops)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePM(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	rep := inst.Report()
	writeJSON(w, http.StatusOK, map[string]any{
		"sites":           rep.Sites,
		"net":             rep.Net,
		"totals":          rep.Totals(),
		"orphans":         inst.Orphans(),
		"load_imbalance":  rep.LoadImbalance(),
		"msgs_per_commit": rep.MessagesPerCommit(),
	})
}

func (s *Server) handlePMRender(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, inst.Report().Render())
}

// faultReq is the /Faultlet body.
type faultReq struct {
	Kind   string           `json:"kind"` // crash | recover | partition | heal
	Site   model.SiteID     `json:"site,omitempty"`
	Groups [][]model.SiteID `json:"groups,omitempty"`
}

func (s *Server) handleFault(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	var req faultReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	switch req.Kind {
	case "crash":
		err = inst.Injector.Crash(req.Site)
	case "recover":
		err = inst.Injector.Recover(req.Site)
	case "partition":
		inst.Injector.Partition(req.Groups...)
	case "heal":
		inst.Injector.Heal()
	default:
		err = fmt.Errorf("unknown fault kind %q", req.Kind)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	inst, err := s.current()
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	inst.ResetStats()
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
