#ifndef KIMDB_CATALOG_CATALOG_H_
#define KIMDB_CATALOG_CATALOG_H_

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "catalog/class_def.h"
#include "model/object.h"
#include "model/oid.h"
#include "util/result.h"
#include "util/status.h"

namespace kimdb {

/// Specification of an attribute when creating a class or adding an
/// attribute (the catalog assigns the stable AttrId).
struct AttributeSpec {
  std::string name;
  Domain domain;
  Value default_value;

  AttributeSpec(std::string n, Domain d, Value dv = Value::Null())
      : name(std::move(n)), domain(std::move(d)),
        default_value(std::move(dv)) {}
};

struct MethodSpec {
  std::string name;
  uint32_t arity = 0;
};

/// The schema: the set of classes organized as a rooted DAG (paper §3.1
/// point 5), with dynamic extensibility (schema evolution, §5.1) following
/// the BANE87 taxonomy and ORION conflict-resolution rules:
///
///  * multiple inheritance with leftmost-superclass precedence for name
///    conflicts;
///  * a locally (re)defined attribute shadows an inherited one;
///  * dropping a class re-parents its subclasses to its superclasses and
///    re-targets attribute domains that referenced it to the root class.
///
/// Every mutation bumps `schema_version()`, which invalidates the cached
/// per-class resolved views (effective attributes, linearization, subtree).
class Catalog {
 public:
  /// Creates a catalog containing only the root class ("Object").
  Catalog();

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  // Moves are setup-time only (Database::Open, Decode); they are not
  // thread-safe against concurrent readers of either catalog.
  Catalog(Catalog&& other) noexcept;
  Catalog& operator=(Catalog&& other) noexcept;

  // --- class definition ----------------------------------------------------

  /// Creates a class. Empty `supers` means the root class is the only
  /// superclass. Attribute/method names must be unique among themselves.
  Result<ClassId> CreateClass(std::string_view name,
                              const std::vector<ClassId>& supers,
                              const std::vector<AttributeSpec>& attrs,
                              const std::vector<MethodSpec>& methods = {});

  /// Drops a class: its direct subclasses are re-parented onto its
  /// superclasses (splice), and ref-domains targeting it fall back to the
  /// root class. The caller must have dropped/migrated the extent first.
  Status DropClass(ClassId cls);

  // --- lookup --------------------------------------------------------------

  Result<ClassId> FindClass(std::string_view name) const;
  Result<const ClassDef*> GetClass(ClassId cls) const;
  /// Mutable access for the storage layer (extent head, serial allocation).
  Result<ClassDef*> GetClassMutable(ClassId cls);
  std::vector<ClassId> AllClasses() const;  // excluding the root

  // --- hierarchy queries ---------------------------------------------------

  bool IsSubclassOf(ClassId sub, ClassId super) const;
  /// `cls` plus all direct and indirect subclasses (the "class hierarchy
  /// rooted at" `cls` -- the wider query scope of §3.2).
  std::vector<ClassId> Subtree(ClassId cls) const;
  /// Method/attribute resolution order: `cls`, then ancestors, depth-first
  /// following superclass precedence, each class once.
  std::vector<ClassId> Linearize(ClassId cls) const;

  // --- resolved (inherited) schema ----------------------------------------

  /// Precomputed per-class view of the effective schema, cached until the
  /// next schema mutation. `by_id` makes membership tests O(1) (the read
  /// path's default-fill and dropped-attr elision used to be O(A²) per
  /// object); `defaulted` lists just the attributes with non-null defaults
  /// so materialization skips the rest.
  struct EffectiveSchema {
    std::vector<const AttributeDef*> attrs;  // precedence order
    std::unordered_map<AttrId, const AttributeDef*> by_id;
    std::vector<const AttributeDef*> defaulted;
  };

  /// All attributes visible on `cls` (own + inherited, conflicts resolved).
  Result<std::vector<const AttributeDef*>> EffectiveAttrs(ClassId cls) const;
  /// The cached effective-schema view. The pointer stays valid until the
  /// next schema mutation (same lifetime as the AttributeDef pointers all
  /// resolution APIs hand out).
  Result<const EffectiveSchema*> EffectiveSchemaFor(ClassId cls) const;
  /// Resolves an attribute by name with inheritance.
  Result<const AttributeDef*> ResolveAttr(ClassId cls,
                                          std::string_view name) const;
  /// Resolves a method by name with inheritance -- this *is* late binding
  /// (§3.1 point 6): the defining class found here keys the registry.
  Result<const MethodDef*> ResolveMethod(ClassId cls,
                                         std::string_view name) const;
  /// Looks up an attribute definition by its stable id (any class).
  Result<const AttributeDef*> GetAttrById(AttrId id) const;

  /// Type-checks `v` against `d` (subclass-compatible refs allowed; `kAny`
  /// accepts everything; null allowed everywhere).
  Status CheckValue(const Domain& d, const Value& v) const;

  // --- schema evolution (§5.1, BANE87) --------------------------------------

  Status AddAttribute(ClassId cls, const AttributeSpec& spec);
  Status DropAttribute(ClassId cls, std::string_view name);
  Status RenameAttribute(ClassId cls, std::string_view from,
                         std::string_view to);
  Status ChangeAttributeDefault(ClassId cls, std::string_view name,
                                Value default_value);
  Status RenameClass(ClassId cls, std::string_view new_name);
  Status AddMethod(ClassId cls, const MethodSpec& spec);
  Status DropMethod(ClassId cls, std::string_view name);
  /// Adds a superclass edge; rejects cycles and self-edges.
  Status AddSuperclass(ClassId cls, ClassId super);
  /// Removes a superclass edge; if it was the last one, the root class
  /// becomes the superclass (the DAG stays rooted).
  Status RemoveSuperclass(ClassId cls, ClassId super);

  uint64_t schema_version() const {
    return schema_version_.load(std::memory_order_relaxed);
  }

  // --- persistence ----------------------------------------------------------

  void EncodeTo(std::string* dst) const;
  static Result<Catalog> Decode(std::string_view bytes);

 private:
  Status CheckAcyclic(ClassId cls, ClassId new_super) const;
  void Bump() {
    schema_version_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(resolved_mu_);
    resolved_cache_.clear();
  }

  struct Resolved {
    std::vector<ClassId> linearization;
    EffectiveSchema schema;
  };
  const Resolved& ResolvedFor(ClassId cls) const;

  std::map<ClassId, ClassDef> classes_;  // ordered for deterministic encode
  std::unordered_map<std::string, ClassId> by_name_;
  ClassId next_class_id_ = 1;  // 0 is the root
  AttrId next_attr_id_ = 1;
  std::atomic<uint64_t> schema_version_{0};
  /// Leaf lock for the lazily-built resolved views: concurrent readers
  /// (concurrent scans, shared-lock Gets) race to fill
  /// resolved_cache_. Schema *mutation* concurrent with readers is not
  /// supported (pointer-stability contract above), only reads racing
  /// reads.
  mutable std::mutex resolved_mu_;
  mutable std::unordered_map<ClassId, Resolved> resolved_cache_;
};

}  // namespace kimdb

#endif  // KIMDB_CATALOG_CATALOG_H_
