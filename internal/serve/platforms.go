// The platform resource: discovery of every platform the service can
// model (GET /platforms, GET /platforms/{name}) and registration of
// user-defined machines as data (POST /platforms). A registered custom
// is a first-class platform — it resolves through the same
// cluster.Lookup, carries the same structure-derived capability tags,
// and qualifies the same (id, scale, platform) cache keys as a preset,
// under its content-hash name custom-<hash12>.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/report"
)

// DefaultMaxPlatformBody bounds POST /platforms request bodies. A
// platform spec is a page of JSON; a megabyte is generous.
const DefaultMaxPlatformBody = 1 << 20

// platformInfo is one row of the platform listing: identity, the
// structure-derived capability tags, and the experiments the platform
// can answer — computed from the same Needs masks core enforces, so
// the listing can never advertise a pair the service would reject.
type platformInfo struct {
	Name        string   `json:"name"`
	Kind        string   `json:"kind"` // "preset" or "custom"
	Label       string   `json:"label,omitempty"`
	Topology    string   `json:"topology"`
	Caps        []string `json:"caps"`
	Experiments []string `json:"experiments"`
}

// infoFor builds the listing row for one resolvable platform.
func infoFor(name string) (platformInfo, bool) {
	m, ok := cluster.Lookup(name)
	if !ok {
		return platformInfo{}, false
	}
	kind := "preset"
	label := ""
	if cluster.IsCustomName(name) {
		kind = "custom"
		if s, ok := cluster.CustomSpec(name); ok {
			label = s.Label
		}
	}
	caps := m.Caps().List()
	if caps == nil {
		caps = []string{}
	}
	var exps []string
	for _, e := range core.All() {
		if !e.NoPlatform && m.Has(e.Needs) {
			exps = append(exps, e.ID)
		}
	}
	if exps == nil {
		exps = []string{}
	}
	return platformInfo{
		Name:        name,
		Kind:        kind,
		Label:       label,
		Topology:    m.Topo.String(),
		Caps:        caps,
		Experiments: exps,
	}, true
}

// platformList builds the full listing: presets in registry order,
// then customs in name order.
func platformList() []platformInfo {
	names := append(cluster.Names(), cluster.CustomNames()...)
	out := make([]platformInfo, 0, len(names))
	for _, n := range names {
		if info, ok := infoFor(n); ok {
			out = append(out, info)
		}
	}
	return out
}

// handlePlatformList serves the platform listing in the negotiated
// content type. Unlike the experiment listing the body is built per
// request — registrations change it — but it still carries a strong
// ETag so pollers revalidate cheaply.
func (s *Server) handlePlatformList(w http.ResponseWriter, r *http.Request) {
	writeNegotiated(w, r, func(ct string) (rep, bool) {
		list := platformList()
		return tableRep(ct, list, func() *report.Table {
			t := report.NewTable("platforms", "name", "kind", "topology", "caps", "experiments")
			for _, p := range list {
				caps := strings.Join(p.Caps, "+")
				if caps == "" {
					caps = "any"
				}
				t.AddRow(p.Name, p.Kind, p.Topology, caps, strings.Join(p.Experiments, ","))
			}
			return t
		}), true
	})
}

// platformDetail is the GET /platforms/{name} body: the listing row
// plus, for customs, the canonical spec the name hashes — what a
// client needs to re-register the identical machine elsewhere.
type platformDetail struct {
	platformInfo
	Spec json.RawMessage `json:"spec,omitempty"`
}

// handlePlatformGet serves one platform's detail as JSON.
func (s *Server) handlePlatformGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	info, ok := infoFor(name)
	if !ok {
		WriteError(w, r, http.StatusNotFound, codeUnknownPlatform,
			fmt.Sprintf("unknown platform %q", name),
			"GET /platforms lists every preset and registered custom platform")
		return
	}
	d := platformDetail{platformInfo: info}
	if spec, ok := cluster.CustomSpec(name); ok {
		d.Spec = spec.Canonical()
	}
	WriteJSON(w, http.StatusOK, d)
}

// registerResponse is the POST /platforms body: the canonical
// content-hash name plus the row a listing would show, so the client
// learns compatibility without a second round trip.
type registerResponse struct {
	platformInfo
	Existed bool `json:"existed"`
}

// handlePlatformRegister accepts one JSON platform spec, validates it
// through cluster.ParseSpec (the same Validate the presets pass), and
// registers it under its content-hash name. Registration is
// idempotent: re-POSTing the same machine — whatever the field order
// or formatting — answers 200 with the same name; a first sighting
// answers 201 + Location. Oversized bodies are cut off at
// DefaultMaxPlatformBody with 413 before parsing.
func (s *Server) handlePlatformRegister(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, DefaultMaxPlatformBody))
	if err != nil {
		s.m.customRejected.Inc()
		WriteBodyError(w, r, "platform spec", err)
		return
	}
	spec, err := cluster.ParseSpec(body)
	if err != nil {
		s.m.customRejected.Inc()
		WriteError(w, r, http.StatusBadRequest, codeInvalidPlatform, err.Error(),
			"see the bring-your-own-machine section of the README for the spec schema")
		return
	}
	name, existed := cluster.RegisterCustom(spec)
	if existed {
		s.m.customDuplicate.Inc()
	} else {
		s.m.customRegistered.Inc()
		s.persistPlatform(name, spec)
	}
	info, _ := infoFor(name)
	w.Header().Set("Location", "/platforms/"+name)
	status := http.StatusCreated
	if existed {
		status = http.StatusOK
	}
	WriteJSON(w, status, registerResponse{platformInfo: info, Existed: existed})
}

// persistPlatform writes a newly registered spec's canonical bytes to
// the platform dir, so a restarted daemon reloads it and its
// disk-cached results stay addressable. Best-effort, like the result
// store: a failed write is logged, the registration stands.
func (s *Server) persistPlatform(name string, spec *cluster.Spec) {
	if s.cfg.PlatformDir == "" {
		return
	}
	if err := os.MkdirAll(s.cfg.PlatformDir, 0o755); err != nil {
		s.accessLog.Error("platform dir create failed", "dir", s.cfg.PlatformDir, "error", err.Error())
		return
	}
	path := filepath.Join(s.cfg.PlatformDir, name+".json")
	if err := os.WriteFile(path, append(spec.Canonical(), '\n'), 0o644); err != nil {
		s.accessLog.Error("platform persist failed", "platform", name, "error", err.Error())
	}
}

// loadPlatformDir registers every *.json spec in the platform dir at
// startup — the daemon's preload path, and the other half of
// persistPlatform's restart round trip. Files are data, not truth: an
// unparseable spec is logged and skipped, never fatal, and the
// content-hash naming means a file registered under a stale filename
// still gets its correct canonical name.
func (s *Server) loadPlatformDir() {
	if s.cfg.PlatformDir == "" {
		return
	}
	ents, err := os.ReadDir(s.cfg.PlatformDir)
	if err != nil {
		if !os.IsNotExist(err) {
			s.accessLog.Error("platform dir unreadable", "dir", s.cfg.PlatformDir, "error", err.Error())
		}
		return
	}
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".json" {
			continue
		}
		path := filepath.Join(s.cfg.PlatformDir, ent.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			s.accessLog.Error("platform file unreadable", "file", path, "error", err.Error())
			continue
		}
		spec, err := cluster.ParseSpec(b)
		if err != nil {
			s.accessLog.Error("platform file invalid", "file", path, "error", err.Error())
			continue
		}
		cluster.RegisterCustom(spec)
	}
}
