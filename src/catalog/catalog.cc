#include "catalog/catalog.h"

#include <algorithm>
#include <unordered_set>

namespace kimdb {

Catalog::Catalog() {
  ClassDef root;
  root.id = kRootClassId;
  root.name = "Object";
  classes_[kRootClassId] = std::move(root);
  by_name_["Object"] = kRootClassId;
}

Catalog::Catalog(Catalog&& other) noexcept { *this = std::move(other); }

Catalog& Catalog::operator=(Catalog&& other) noexcept {
  classes_ = std::move(other.classes_);
  by_name_ = std::move(other.by_name_);
  next_class_id_ = other.next_class_id_;
  next_attr_id_ = other.next_attr_id_;
  schema_version_.store(other.schema_version_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  // Drop (rather than move) the resolved views; they are rebuilt lazily.
  resolved_cache_.clear();
  other.resolved_cache_.clear();
  return *this;
}

Result<ClassId> Catalog::CreateClass(
    std::string_view name, const std::vector<ClassId>& supers,
    const std::vector<AttributeSpec>& attrs,
    const std::vector<MethodSpec>& methods) {
  std::string name_str(name);
  if (name_str.empty()) return Status::InvalidArgument("empty class name");
  if (by_name_.count(name_str)) {
    return Status::AlreadyExists("class '" + name_str + "' exists");
  }
  for (ClassId s : supers) {
    if (!classes_.count(s)) {
      return Status::NotFound("superclass #" + std::to_string(s) +
                              " does not exist");
    }
  }
  {
    std::unordered_set<std::string> seen;
    for (const auto& a : attrs) {
      if (a.name.empty()) return Status::InvalidArgument("empty attr name");
      if (!seen.insert(a.name).second) {
        return Status::InvalidArgument("duplicate attribute '" + a.name + "'");
      }
      if (a.domain.kind == Domain::Kind::kRef &&
          !classes_.count(a.domain.ref_class)) {
        return Status::NotFound("domain class of '" + a.name +
                                "' does not exist");
      }
    }
    seen.clear();
    for (const auto& m : methods) {
      if (m.name.empty()) return Status::InvalidArgument("empty method name");
      if (!seen.insert(m.name).second) {
        return Status::InvalidArgument("duplicate method '" + m.name + "'");
      }
    }
  }

  ClassDef def;
  def.id = next_class_id_++;
  def.name = name_str;
  def.supers = supers.empty() ? std::vector<ClassId>{kRootClassId} : supers;
  // Deduplicate supers preserving order.
  {
    std::unordered_set<ClassId> seen;
    std::vector<ClassId> uniq;
    for (ClassId s : def.supers) {
      if (seen.insert(s).second) uniq.push_back(s);
    }
    def.supers = std::move(uniq);
  }
  for (const auto& a : attrs) {
    AttributeDef ad;
    ad.id = next_attr_id_++;
    ad.name = a.name;
    ad.domain = a.domain;
    ad.default_value = a.default_value;
    ad.defined_in = def.id;
    def.own_attrs.push_back(std::move(ad));
  }
  for (const auto& m : methods) {
    def.own_methods.push_back(MethodDef{m.name, m.arity, def.id});
  }
  ClassId id = def.id;
  by_name_[name_str] = id;
  classes_[id] = std::move(def);
  Bump();
  return id;
}

Status Catalog::DropClass(ClassId cls) {
  if (cls == kRootClassId) {
    return Status::InvalidArgument("cannot drop the root class");
  }
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  const std::vector<ClassId> dead_supers = it->second.supers;

  // Re-parent direct subclasses: splice the dropped class's supers into the
  // position the dropped class occupied (BANE87 semantics).
  for (auto& [id, def] : classes_) {
    auto pos = std::find(def.supers.begin(), def.supers.end(), cls);
    if (pos == def.supers.end()) continue;
    size_t idx = static_cast<size_t>(pos - def.supers.begin());
    def.supers.erase(pos);
    std::unordered_set<ClassId> present(def.supers.begin(), def.supers.end());
    size_t insert_at = idx;
    for (ClassId s : dead_supers) {
      if (present.insert(s).second) {
        def.supers.insert(def.supers.begin() + insert_at, s);
        ++insert_at;
      }
    }
    if (def.supers.empty()) def.supers.push_back(kRootClassId);
  }
  // Attribute domains that referenced the dropped class fall back to the
  // root class (accept any object).
  for (auto& [id, def] : classes_) {
    for (auto& a : def.own_attrs) {
      if (a.domain.kind == Domain::Kind::kRef && a.domain.ref_class == cls) {
        a.domain.ref_class = kRootClassId;
      }
    }
  }
  by_name_.erase(it->second.name);
  classes_.erase(it);
  Bump();
  return Status::OK();
}

Result<ClassId> Catalog::FindClass(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("class '" + std::string(name) + "' not found");
  }
  return it->second;
}

Result<const ClassDef*> Catalog::GetClass(ClassId cls) const {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  return &it->second;
}

Result<ClassDef*> Catalog::GetClassMutable(ClassId cls) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  return &it->second;
}

std::vector<ClassId> Catalog::AllClasses() const {
  std::vector<ClassId> out;
  for (const auto& [id, def] : classes_) {
    if (id != kRootClassId) out.push_back(id);
  }
  return out;
}

bool Catalog::IsSubclassOf(ClassId sub, ClassId super) const {
  if (sub == super) return true;
  if (super == kRootClassId) return classes_.count(sub) > 0;
  for (ClassId c : Linearize(sub)) {
    if (c == super) return true;
  }
  return false;
}

std::vector<ClassId> Catalog::Subtree(ClassId cls) const {
  // BFS downward over the (inverted) superclass edges.
  std::vector<ClassId> out;
  std::unordered_set<ClassId> seen;
  std::vector<ClassId> frontier{cls};
  seen.insert(cls);
  while (!frontier.empty()) {
    std::vector<ClassId> next;
    for (ClassId c : frontier) {
      out.push_back(c);
      for (const auto& [id, def] : classes_) {
        if (seen.count(id)) continue;
        if (std::find(def.supers.begin(), def.supers.end(), c) !=
            def.supers.end()) {
          seen.insert(id);
          next.push_back(id);
        }
      }
    }
    frontier = std::move(next);
  }
  return out;
}

const Catalog::Resolved& Catalog::ResolvedFor(ClassId cls) const {
  // Concurrent readers (concurrent scans, shared-lock point reads)
  // race to fill the view; the leaf mutex makes the find-or-build atomic.
  // Map references are node-stable, so the returned reference outlives the
  // lock (entries die only on schema mutation, which requires quiescence).
  std::lock_guard<std::mutex> lock(resolved_mu_);
  auto it = resolved_cache_.find(cls);
  if (it != resolved_cache_.end()) return it->second;

  Resolved r;
  // Linearization: DFS from cls following supers in precedence order,
  // recording each class the first time it is reached.
  std::unordered_set<ClassId> seen;
  std::vector<ClassId> stack{cls};
  while (!stack.empty()) {
    ClassId c = stack.back();
    stack.pop_back();
    if (!seen.insert(c).second) continue;
    r.linearization.push_back(c);
    auto cit = classes_.find(c);
    if (cit == classes_.end()) continue;
    // Push supers in reverse so the leftmost is visited first.
    const auto& sups = cit->second.supers;
    for (auto s = sups.rbegin(); s != sups.rend(); ++s) {
      if (!seen.count(*s)) stack.push_back(*s);
    }
  }
  // Effective attributes: first definition of each name along the
  // linearization wins (own attrs shadow inherited, leftmost super wins).
  std::unordered_set<std::string> names;
  for (ClassId c : r.linearization) {
    auto cit = classes_.find(c);
    if (cit == classes_.end()) continue;
    for (const auto& a : cit->second.own_attrs) {
      if (names.insert(a.name).second) r.schema.attrs.push_back(&a);
    }
  }
  r.schema.by_id.reserve(r.schema.attrs.size());
  for (const AttributeDef* a : r.schema.attrs) {
    r.schema.by_id.emplace(a->id, a);
    if (!a->default_value.is_null()) r.schema.defaulted.push_back(a);
  }
  return resolved_cache_.emplace(cls, std::move(r)).first->second;
}

std::vector<ClassId> Catalog::Linearize(ClassId cls) const {
  return ResolvedFor(cls).linearization;
}

Result<std::vector<const AttributeDef*>> Catalog::EffectiveAttrs(
    ClassId cls) const {
  if (!classes_.count(cls)) return Status::NotFound("no such class");
  return ResolvedFor(cls).schema.attrs;
}

Result<const Catalog::EffectiveSchema*> Catalog::EffectiveSchemaFor(
    ClassId cls) const {
  if (!classes_.count(cls)) return Status::NotFound("no such class");
  return &ResolvedFor(cls).schema;
}

Result<const AttributeDef*> Catalog::ResolveAttr(
    ClassId cls, std::string_view name) const {
  if (!classes_.count(cls)) return Status::NotFound("no such class");
  for (const AttributeDef* a : ResolvedFor(cls).schema.attrs) {
    if (a->name == name) return a;
  }
  return Status::NotFound("attribute '" + std::string(name) +
                          "' not found on class");
}

Result<const MethodDef*> Catalog::ResolveMethod(
    ClassId cls, std::string_view name) const {
  if (!classes_.count(cls)) return Status::NotFound("no such class");
  for (ClassId c : ResolvedFor(cls).linearization) {
    auto cit = classes_.find(c);
    if (cit == classes_.end()) continue;
    for (const auto& m : cit->second.own_methods) {
      if (m.name == name) return &m;
    }
  }
  return Status::NotFound("method '" + std::string(name) +
                          "' undefined along the class hierarchy");
}

Result<const AttributeDef*> Catalog::GetAttrById(AttrId id) const {
  for (const auto& [cid, def] : classes_) {
    for (const auto& a : def.own_attrs) {
      if (a.id == id) return &a;
    }
  }
  return Status::NotFound("no attribute with id " + std::to_string(id));
}

Status Catalog::CheckValue(const Domain& d, const Value& v) const {
  if (v.is_null()) return Status::OK();
  if (d.is_set) {
    if (!v.is_collection()) {
      return Status::InvalidArgument("set-valued attribute requires a "
                                     "set/list value");
    }
    Domain elem = d;
    elem.is_set = false;
    for (const Value& e : v.elements()) {
      KIMDB_RETURN_IF_ERROR(CheckValue(elem, e));
    }
    return Status::OK();
  }
  switch (d.kind) {
    case Domain::Kind::kAny:
      return Status::OK();
    case Domain::Kind::kInt:
      if (v.kind() != Value::Kind::kInt) {
        return Status::InvalidArgument("expected integer");
      }
      return Status::OK();
    case Domain::Kind::kReal:
      if (v.kind() != Value::Kind::kReal && v.kind() != Value::Kind::kInt) {
        return Status::InvalidArgument("expected real");
      }
      return Status::OK();
    case Domain::Kind::kBool:
      if (v.kind() != Value::Kind::kBool) {
        return Status::InvalidArgument("expected boolean");
      }
      return Status::OK();
    case Domain::Kind::kString:
      if (v.kind() != Value::Kind::kString) {
        return Status::InvalidArgument("expected string");
      }
      return Status::OK();
    case Domain::Kind::kRef: {
      if (v.kind() != Value::Kind::kRef) {
        return Status::InvalidArgument("expected object reference");
      }
      // A class C used as a domain stands for C and all its subclasses
      // (paper §3.2).
      if (!IsSubclassOf(v.as_ref().class_id(), d.ref_class)) {
        return Status::InvalidArgument(
            "reference not an instance of the domain class or a subclass");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable domain kind");
}

Status Catalog::CheckAcyclic(ClassId cls, ClassId new_super) const {
  // Adding cls -> new_super creates a cycle iff cls is reachable upward
  // from new_super.
  for (ClassId c : Linearize(new_super)) {
    if (c == cls) {
      return Status::InvalidArgument("superclass edge would create a cycle");
    }
  }
  return Status::OK();
}

Status Catalog::AddAttribute(ClassId cls, const AttributeSpec& spec) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  if (spec.name.empty()) return Status::InvalidArgument("empty attr name");
  for (const auto& a : it->second.own_attrs) {
    if (a.name == spec.name) {
      return Status::AlreadyExists("attribute '" + spec.name +
                                   "' already defined on class");
    }
  }
  if (spec.domain.kind == Domain::Kind::kRef &&
      !classes_.count(spec.domain.ref_class)) {
    return Status::NotFound("domain class does not exist");
  }
  KIMDB_RETURN_IF_ERROR(CheckValue(spec.domain, spec.default_value));
  AttributeDef ad;
  ad.id = next_attr_id_++;
  ad.name = spec.name;
  ad.domain = spec.domain;
  ad.default_value = spec.default_value;
  ad.defined_in = cls;
  it->second.own_attrs.push_back(std::move(ad));
  Bump();
  return Status::OK();
}

Status Catalog::DropAttribute(ClassId cls, std::string_view name) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  auto& attrs = it->second.own_attrs;
  auto pos = std::find_if(attrs.begin(), attrs.end(),
                          [&](const AttributeDef& a) { return a.name == name; });
  if (pos == attrs.end()) {
    // Distinguish "inherited" (cannot drop here) from "absent".
    Result<const AttributeDef*> inh = ResolveAttr(cls, name);
    if (inh.ok()) {
      return Status::InvalidArgument(
          "attribute is inherited; drop it on its defining class");
    }
    return Status::NotFound("no such attribute");
  }
  attrs.erase(pos);
  Bump();
  return Status::OK();
}

Status Catalog::RenameAttribute(ClassId cls, std::string_view from,
                                std::string_view to) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  if (to.empty()) return Status::InvalidArgument("empty attr name");
  for (const auto& a : it->second.own_attrs) {
    if (a.name == to) return Status::AlreadyExists("target name in use");
  }
  for (auto& a : it->second.own_attrs) {
    if (a.name == from) {
      a.name = std::string(to);
      Bump();
      return Status::OK();
    }
  }
  return Status::NotFound("no such attribute");
}

Status Catalog::ChangeAttributeDefault(ClassId cls, std::string_view name,
                                       Value default_value) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  for (auto& a : it->second.own_attrs) {
    if (a.name == name) {
      KIMDB_RETURN_IF_ERROR(CheckValue(a.domain, default_value));
      a.default_value = std::move(default_value);
      Bump();
      return Status::OK();
    }
  }
  return Status::NotFound("no such attribute");
}

Status Catalog::RenameClass(ClassId cls, std::string_view new_name) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  if (new_name.empty()) return Status::InvalidArgument("empty class name");
  if (by_name_.count(std::string(new_name))) {
    return Status::AlreadyExists("class name in use");
  }
  by_name_.erase(it->second.name);
  it->second.name = std::string(new_name);
  by_name_[it->second.name] = cls;
  Bump();
  return Status::OK();
}

Status Catalog::AddMethod(ClassId cls, const MethodSpec& spec) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  for (const auto& m : it->second.own_methods) {
    if (m.name == spec.name) {
      return Status::AlreadyExists("method already defined on class");
    }
  }
  it->second.own_methods.push_back(MethodDef{spec.name, spec.arity, cls});
  Bump();
  return Status::OK();
}

Status Catalog::DropMethod(ClassId cls, std::string_view name) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  auto& ms = it->second.own_methods;
  auto pos = std::find_if(ms.begin(), ms.end(),
                          [&](const MethodDef& m) { return m.name == name; });
  if (pos == ms.end()) return Status::NotFound("no such method");
  ms.erase(pos);
  Bump();
  return Status::OK();
}

Status Catalog::AddSuperclass(ClassId cls, ClassId super) {
  if (cls == super) return Status::InvalidArgument("class cannot be its own "
                                                   "superclass");
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  if (!classes_.count(super)) return Status::NotFound("no such superclass");
  if (std::find(it->second.supers.begin(), it->second.supers.end(), super) !=
      it->second.supers.end()) {
    return Status::AlreadyExists("already a superclass");
  }
  KIMDB_RETURN_IF_ERROR(CheckAcyclic(cls, super));
  it->second.supers.push_back(super);
  Bump();
  return Status::OK();
}

Status Catalog::RemoveSuperclass(ClassId cls, ClassId super) {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return Status::NotFound("no such class");
  auto& sups = it->second.supers;
  auto pos = std::find(sups.begin(), sups.end(), super);
  if (pos == sups.end()) return Status::NotFound("not a superclass");
  sups.erase(pos);
  if (sups.empty()) sups.push_back(kRootClassId);
  Bump();
  return Status::OK();
}

void Catalog::EncodeTo(std::string* dst) const {
  PutFixed32(dst, next_class_id_);
  PutFixed32(dst, next_attr_id_);
  PutVarint64(dst, schema_version_);
  PutVarint32(dst, static_cast<uint32_t>(classes_.size()));
  for (const auto& [id, def] : classes_) def.EncodeTo(dst);
}

Result<Catalog> Catalog::Decode(std::string_view bytes) {
  Decoder dec(bytes);
  Catalog cat;
  cat.classes_.clear();
  cat.by_name_.clear();
  KIMDB_ASSIGN_OR_RETURN(cat.next_class_id_, dec.ReadFixed32());
  KIMDB_ASSIGN_OR_RETURN(cat.next_attr_id_, dec.ReadFixed32());
  KIMDB_ASSIGN_OR_RETURN(cat.schema_version_, dec.ReadVarint64());
  KIMDB_ASSIGN_OR_RETURN(uint32_t n, dec.ReadVarint32());
  for (uint32_t i = 0; i < n; ++i) {
    KIMDB_ASSIGN_OR_RETURN(ClassDef def, ClassDef::DecodeFrom(&dec));
    cat.by_name_[def.name] = def.id;
    cat.classes_[def.id] = std::move(def);
  }
  if (!cat.classes_.count(kRootClassId)) {
    return Status::Corruption("catalog missing root class");
  }
  return cat;
}

}  // namespace kimdb
